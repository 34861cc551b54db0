"""Scalar figures of merit for biphoton wave packets and measured rates.

Rates and widths flow through here both for model predictions (arbitrary
units until a calibration scale is fitted) and for measured data (absolute
rates after detection-efficiency correction).  Angular frequencies are in
units of Gamma; :mod:`biphoton.units` converts at the boundary.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ExtractionError, InconsistentRatesError, ParameterError
from .units import gamma_to_mhz
from .wavepacket import WavePacket


@dataclass(frozen=True)
class DetectionChain:
    """Overall detection efficiencies and the cell-to-fiber factor.

    ``d_s``/``d_p`` include SPCM quantum efficiencies, etalon peak
    transmittances and optical losses, but not the fiber collection
    efficiencies; ``fiber_factor`` converts fiber-referenced rates to
    rates right after the cell.
    """

    d_s: float = 0.13
    d_p: float = 0.094
    fiber_factor: float = 1.9

    def __post_init__(self):
        def bad(name, why):
            raise ParameterError.on_field(f"DetectionChain.{name}",
                                          getattr(self, name), why)

        for name in ("d_s", "d_p", "fiber_factor"):
            if not np.isfinite(getattr(self, name)):
                bad(name, "must be finite")
        for name in ("d_s", "d_p"):
            if not 0.0 < getattr(self, name) <= 1.0:
                bad(name, "must lie in (0, 1]")
        if self.fiber_factor < 1.0:
            bad("fiber_factor", "must be >= 1")


class HalfMaximum(NamedTuple):
    """Where ``fwhm`` reads a curve: the peak sample, and on each side the
    first sample below half the peak value (the crossing lies between it
    and its neighbour towards the peak)."""

    peak: int
    right: int
    left: int

    @property
    def indices(self) -> tuple[int, ...]:
        """The samples the width depends on, each once."""
        return tuple(dict.fromkeys((self.peak, self.left + 1, self.left,
                                    self.right - 1, self.right)))


def half_maximum(x, y) -> HalfMaximum:
    """The samples ``fwhm`` interpolates between; raises as ``fwhm`` does."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or x.size < 3:
        raise ExtractionError("curve must be two matching 1-d arrays (n >= 3)")
    peak = int(np.argmax(y))
    if peak == 0 or peak == y.size - 1:
        raise ExtractionError("global maximum sits on a curve endpoint")
    half = y[peak] / 2.0

    def below(idx_to, step, side):
        i = peak + step
        while i != idx_to + step:
            if y[i] < half:
                return i
            i += step
        raise ExtractionError(f"no half-maximum crossing on the {side} side")

    return HalfMaximum(peak, below(y.size - 1, +1, "right"),
                       below(0, -1, "left"))


def fwhm(x, y) -> float:
    """Full width at half maximum of a sampled non-negative curve.

    The two half-maximum crossings adjacent to the global peak are located
    by linear interpolation between the bracketing samples.  The peak must
    be interior; a missing crossing raises naming the failing side.
    Invariant under positive rescaling of y and translation of x.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    hm = half_maximum(x, y)
    half = y[hm.peak] / 2.0

    def crossing(i, prev):
        # interpolate between prev (>= half) and i (< half)
        frac = (half - y[prev]) / (y[i] - y[prev])
        return x[prev] + frac * (x[i] - x[prev])

    return float(crossing(hm.right, hm.right - 1)
                 - crossing(hm.left, hm.left + 1))


def fwhm_tangent(hm: HalfMaximum, x, y, dy) -> float:
    """Derivative of ``fwhm(x, y)`` along dy, where ``hm`` is
    ``half_maximum(x, y)``.

    x and y are the full curve ``fwhm`` reads, and x stays fixed; dy is
    given at ``hm.indices`` alone (same order).  Exact for the linear
    interpolation ``fwhm`` does, away from the values of y at which the
    peak or a bracketing sample changes.
    """
    dy = dict(zip(hm.indices, dy))
    half = y[hm.peak] / 2.0
    d_half = dy[hm.peak] / 2.0

    def d_crossing(i, prev):
        rise = y[i] - y[prev]
        d_frac = ((d_half - dy[prev]) * rise
                  - (half - y[prev]) * (dy[i] - dy[prev])) / rise**2
        return d_frac * (x[i] - x[prev])

    return float(d_crossing(hm.right, hm.right - 1)
                 - d_crossing(hm.left, hm.left + 1))


def generation_rate(wp: WavePacket) -> float:
    """Pair generation rate: the wave-packet area over tau.

    The result is in arbitrary units; the fitter's calibration scale
    makes it pairs/s.  Equals the frequency-domain (Parseval) value of the
    generating amplitude to rounding error.
    """
    return float(np.trapezoid(wp.g2, wp.tau))


def heralding_probability(r_g: float, singles_rate: float) -> float:
    """Ratio of the pair rate to the heralding-photon singles rate.

    A ratio above 1 is physically impossible and flags a calibration
    inconsistency, so it raises instead of clamping.
    """
    if not singles_rate > 0:
        raise ParameterError("singles_rate must be positive")
    if r_g < 0:
        raise ParameterError("r_g must be >= 0")
    if r_g > singles_rate:
        raise InconsistentRatesError(
            f"pair rate {r_g:g}/s exceeds singles rate {singles_rate:g}/s")
    return r_g / singles_rate


def sbr_from_g2(g2_values) -> float:
    """Signal-to-background ratio: max of the normalized g2 minus 1.

    The curve must be background-normalized (asymptotic level 1); a
    baseline far from 1 means the normalization step was skipped.
    """
    g2 = np.asarray(g2_values, dtype=float)
    if g2.ndim != 1 or g2.size < 4:
        raise ParameterError("g2 curve must be a 1-d array (n >= 4)")
    baseline = float(np.mean(np.sort(g2)[: max(4, g2.size // 4)]))
    if not 0.5 <= baseline <= 1.5:
        raise ParameterError(
            f"g2 baseline {baseline:.3g} is not ~1; curve is not "
            "background-normalized")
    return float(np.max(g2) - 1.0)


class GenerationRates(NamedTuple):
    fiber: float
    cell: float


def detected_to_generated(r_d: float, chain: DetectionChain) -> GenerationRates:
    """Detected pair rate to generated rates (fiber- and cell-referenced).

    ``r_d`` must already be saturation-corrected upstream.  The fiber rate
    is r_d/(d_s d_p); the cell rate multiplies in the fiber factor.
    """
    if r_d < 0:
        raise ParameterError("r_d must be >= 0")
    fiber = r_d / (chain.d_s * chain.d_p)
    return GenerationRates(fiber=fiber, cell=chain.fiber_factor * fiber)


def spectral_brightness(r_g: float, delta_omega: float) -> float:
    """Generation rate per spectral linewidth, in pairs/s/MHz.

    ``delta_omega`` is the spectral FWHM in units of Gamma; the division
    uses its /2pi value in MHz.
    """
    if r_g < 0:
        raise ParameterError("r_g must be >= 0")
    if not delta_omega > 0:
        raise ParameterError("delta_omega must be positive")
    return r_g / gamma_to_mhz(delta_omega)
