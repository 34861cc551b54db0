"""End-to-end forward model: params -> wave packet -> scalar observables.

``detuning_sweep`` is the one loop over detunings (CLI sweep and fitter).
With ``derivatives``, :func:`predict` also carries the pass to first
order in (b, Omega_c, gamma_dec), the fitter's Jacobian: the amplitude
and its tangents come from one sweep of the grid (forward mode, as in
Griewank and Walther, *Evaluating Derivatives*, 2nd ed., SIAM 2008).
"""

from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .errors import BiphotonError
from .observables import fwhm, fwhm_tangent, generation_rate, half_maximum
from .params import SystemParams
from .units import tau_to_ns
from .wavepacket import (DetuningGrid, SpectralAmplitude, WavePacket,
                         biphoton_spectrum, sample_spectral_amplitude,
                         transform_tangents, wave_packet)


@dataclass(frozen=True)
class ModelPrediction:
    """Forward-model outputs for one parameter set.

    ``rg_arb`` is the uncalibrated wave-packet area (arbitrary units);
    ``tau_w`` is in 1/Gamma (``tau_w_ns`` converts); ``delta_omega`` is
    the spectral FWHM in units of Gamma.  ``d_rg_arb`` and ``d_tau_w``
    hold the derivatives of ``rg_arb`` and ``tau_w`` with respect to
    (b, omega_c, gamma_dec) when they were asked for, else None.
    """

    rg_arb: float
    tau_w: float
    delta_omega: float
    amplitude: SpectralAmplitude
    wavepacket: WavePacket
    d_rg_arb: np.ndarray | None = None
    d_tau_w: np.ndarray | None = None

    @property
    def tau_w_ns(self) -> float:
        return tau_to_ns(self.tau_w)


def predict(params: SystemParams,
            grid_hint: DetuningGrid | None = None,
            impurity_lines: dict | None = None,
            derivatives: bool = False) -> ModelPrediction:
    """Run the pipeline and extract (R_g, tau_w, delta_omega).

    A zero amplitude (pump off) yields rg_arb = 0 with NaN widths rather
    than an extraction error, so sweeps can record the degenerate point.
    ``impurity_lines`` is the optional cache of
    :func:`~biphoton.wavepacket.sample_spectral_amplitude`.

    ``derivatives`` adds ``d_rg_arb`` and ``d_tau_w`` (NaN for a zero
    amplitude) and leaves every other output the same, bit for bit.  The
    amplitude's tangents, dropped from the returned amplitude, are summed
    at the few wave-packet samples ``fwhm`` reads, with no FFT of their
    own.  By Parseval, R_g = (d_delta/2pi) sum |a|^2 over the end-halved
    amplitude a, and d tau_w follows the linear interpolation of ``fwhm``
    with d g2 = 2 Re(conj(G) dG).
    """
    sa = sample_spectral_amplitude(params, grid_hint=grid_hint,
                                   impurity_lines=impurity_lines,
                                   derivatives=derivatives)
    wp = wave_packet(sa)
    rg = generation_rate(wp)
    d_rg = d_tau_w = None
    if sa.peak_magnitude == 0.0:
        rg, tau_w, delta_omega = 0.0, float("nan"), float("nan")
        if derivatives:
            d_rg, d_tau_w = np.full(3, np.nan), np.full(3, np.nan)
    else:
        tau_w = fwhm(wp.tau, wp.g2)
        if derivatives:
            d_rg, d_tau_w = _rate_and_width_tangents(sa, wp)
        delta_omega = fwhm(sa.grid.values, biphoton_spectrum(sa))
    return ModelPrediction(rg, tau_w, delta_omega, replace(sa, tangents=None),
                           wp, d_rg, d_tau_w)


def _rate_and_width_tangents(sa: SpectralAmplitude, wp: WavePacket):
    """d rg_arb and d tau_w in (b, omega_c, gamma_dec) from the amplitude
    tangents ``sa`` carries, at the samples ``fwhm`` read ``wp`` at;
    raises NUMERICAL if a tangent has an inf or NaN sample."""
    hm = half_maximum(wp.tau, wp.g2)
    g, d_g, d_energy = transform_tangents(sa, list(hm.indices))
    # each energy sum reduces every sample of a tangent
    if not np.isfinite(d_energy).all():
        raise BiphotonError("spectral amplitude derivatives are not finite")
    d_g2 = 2.0 * (np.conj(g) * d_g).real
    return ((sa.grid.spacing / (2.0 * np.pi)) * d_energy,
            np.array([fwhm_tangent(hm, wp.tau, wp.g2, d) for d in d_g2]))


def detuning_sweep(params: SystemParams, delta_c_values,
                   grid_hint: DetuningGrid | None = None,
                   impurity_lines: dict | None = None,
                   derivatives: bool = False
                   ) -> Iterator[ModelPrediction | BiphotonError]:
    """Yield the forward model at each coupling detuning (units of Gamma).

    Points run in order as they are consumed, all from ``grid_hint``; a
    point whose pipeline fails yields its BiphotonError in its place.
    ``impurity_lines`` and ``derivatives`` are passed on to every
    :func:`predict`.
    """
    for dc in np.atleast_1d(np.asarray(delta_c_values, dtype=float)):
        try:
            yield predict(params.replace(delta_c=float(dc)),
                          grid_hint=grid_hint, impurity_lines=impurity_lines,
                          derivatives=derivatives)
        except BiphotonError as exc:
            yield exc
