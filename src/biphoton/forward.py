"""End-to-end forward model: params -> wave packet -> scalar observables.

``detuning_sweep`` is the one loop over detunings (CLI sweep and fitter).
``linearize`` is the forward pass at one detuning carried to first order
in (b, Omega_c, gamma_dec): the fitter's Jacobian (forward-mode, as in
Griewank and Walther, *Evaluating Derivatives*, 2nd ed., SIAM 2008).
"""

from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BiphotonError
from .observables import (HalfMaximum, fwhm, fwhm_tangent, generation_rate,
                          half_maximum, width_at_half_maximum)
from .params import SystemParams
from .units import tau_to_ns
from .wavepacket import (DetuningGrid, SpectralAmplitude, WavePacket,
                         biphoton_spectrum, cached_impurity_line,
                         sample_spectral_amplitude, transform_tangents,
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


class WidthSamples(NamedTuple):
    """Where a forward pass read tau_w: its grid, the samples ``fwhm``
    interpolated between, and tau at those samples."""

    grid: DetuningGrid
    half_maximum: HalfMaximum
    tau: np.ndarray


def width_samples(pred: ModelPrediction) -> WidthSamples:
    """The :class:`WidthSamples` of a prediction with a nonzero amplitude."""
    wp = pred.wavepacket
    hm = half_maximum(wp.tau, wp.g2)
    return WidthSamples(pred.amplitude.grid, hm, wp.tau[list(hm.indices)])


class Linearization(NamedTuple):
    """(R_g, tau_w) at one parameter set and their derivatives.

    ``rg_arb`` and ``tau_w`` (1/Gamma) agree with :func:`predict` to
    rounding; ``d_rg_arb`` and ``d_tau_w`` hold the derivatives with
    respect to (b, omega_c, gamma_dec).
    """

    rg_arb: float
    tau_w: float
    d_rg_arb: np.ndarray
    d_tau_w: np.ndarray


def linearize(params: SystemParams, samples: WidthSamples,
              impurity_lines: dict | None = None) -> Linearization:
    """The forward pass carried to first order in (b, omega_c, gamma_dec).

    ``samples`` is the :func:`width_samples` of :func:`predict` at the
    same ``params``; the pass runs on its grid and needs the wave packet
    only at its few samples, so it takes no FFT
    (:func:`~biphoton.wavepacket.transform_tangents`).  By Parseval,
    R_g = (d_delta/2pi) sum |a|^2 over the end-halved amplitude a, and
    tau_w and its derivative follow the linear interpolation of ``fwhm``
    with d g2 = 2 Re(conj(G) dG).  ``impurity_lines`` is the cache of
    :func:`predict`.
    """
    grid, hm = samples.grid, samples.half_maximum
    tt = transform_tangents(params, grid, hm.indices,
                            impurity_line=cached_impurity_line(
                                impurity_lines, grid, grid.values, params))
    scale = grid.spacing / (2.0 * np.pi)
    g2 = np.abs(tt.g) ** 2
    d_g2 = 2.0 * (np.conj(tt.g) * tt.d_g).real
    return Linearization(
        scale * tt.energy, width_at_half_maximum(hm, samples.tau, g2),
        scale * tt.d_energy,
        np.array([fwhm_tangent(hm, samples.tau, g2, d) for d in d_g2]))
