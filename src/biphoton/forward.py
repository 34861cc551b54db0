"""End-to-end forward model: params -> wave packet -> scalar observables.

``detuning_sweep`` is the one loop over detunings (CLI sweep and fitter).
"""

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import BiphotonError
from .observables import fwhm, generation_rate
from .params import SystemParams
from .units import tau_to_ns
from .wavepacket import (DetuningGrid, SpectralAmplitude, WavePacket,
                         biphoton_spectrum, sample_spectral_amplitude,
                         wave_packet)


@dataclass(frozen=True)
class ModelPrediction:
    """Forward-model outputs for one parameter set.

    ``rg_arb`` is the uncalibrated wave-packet area (arbitrary units);
    ``tau_w`` is in 1/Gamma (``tau_w_ns`` converts); ``delta_omega`` is
    the spectral FWHM in units of Gamma.
    """

    params: SystemParams
    rg_arb: float
    tau_w: float
    delta_omega: float
    amplitude: SpectralAmplitude
    wavepacket: WavePacket

    @property
    def tau_w_ns(self) -> float:
        return tau_to_ns(self.tau_w)


def predict(params: SystemParams,
            grid_hint: DetuningGrid | None = None,
            impurity_lines: dict | None = None) -> ModelPrediction:
    """Run the pipeline and extract (R_g, tau_w, delta_omega).

    A zero amplitude (pump off) yields rg_arb = 0 with NaN widths rather
    than an extraction error, so sweeps can record the degenerate point.
    ``impurity_lines`` is the optional cache of
    :func:`~biphoton.wavepacket.sample_spectral_amplitude`.
    """
    sa = sample_spectral_amplitude(params, grid_hint=grid_hint,
                                   impurity_lines=impurity_lines)
    wp = wave_packet(sa)
    rg = generation_rate(wp)
    if sa.peak_magnitude == 0.0:
        return ModelPrediction(params, 0.0, float("nan"), float("nan"), sa, wp)
    tau_w = fwhm(wp.tau, wp.g2)
    spectrum = biphoton_spectrum(sa)
    delta_omega = fwhm(sa.grid.values, spectrum)
    return ModelPrediction(params, rg, tau_w, delta_omega, sa, wp)


def detuning_sweep(params: SystemParams, delta_c_values,
                   grid_hint: DetuningGrid | None = None,
                   impurity_lines: dict | None = None
                   ) -> Iterator[ModelPrediction | BiphotonError]:
    """Yield the forward model at each coupling detuning (units of Gamma).

    Points run in order as they are consumed, all from ``grid_hint``; a
    point whose pipeline fails yields its BiphotonError in its place.
    ``impurity_lines`` is passed on to every :func:`predict`.
    """
    for dc in np.atleast_1d(np.asarray(delta_c_values, dtype=float)):
        try:
            yield predict(params.replace(delta_c=float(dc)),
                          grid_hint=grid_hint, impurity_lines=impurity_lines)
        except BiphotonError as exc:
            yield exc
