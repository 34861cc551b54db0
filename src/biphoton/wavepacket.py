"""Spectral amplitude assembly and the delay-time correlation function.

The spectral amplitude at two-photon detuning delta is

    A(delta) = kappa_bar * sinc(rho_c_bar + rho_m_bar)
               * exp(i (rho_c_bar + rho_m_bar)) * B(delta)

and the two-photon correlation function is the squared continuous Fourier
transform G2(tau) = | (1/2pi) Integral[ A(delta) exp(-i delta tau) ] |^2.

The transform is a trapezoid-weighted DFT, zero-padded to OVERSAMPLE
times the grid size and scaled by d_delta/2pi, so the 1/2pi
normalization is exact for the sampled amplitude.  Starting the sum at
the grid's first sample, -delta_max, instead of 0 multiplies G(tau) by
the unit-modulus factor exp(i delta_max tau); only |G|^2 is formed, so
that factor is never applied, and fftshift puts tau in increasing order.

``amplitude_at`` is the one place that walks a detuning grid: it takes
``_CHUNK`` = 2^14 points at a time, so no temporary of the grid's size
is formed and every slice takes the Faddeeva layer's Taylor path (a
slice of a grid gives the same bits as the whole grid would).  With
``derivatives`` it samples dA/d(b, Omega_c, gamma_dec) in the same
pass, for the fitter, and ``transform_tangents`` then sums a few samples
of the transform and their derivatives directly.

Every slice the package evaluates holds exactly 2^14 points, the
widening's joined outer quarters included (see
``sample_spectral_amplitude``).  Two things need that.  The Faddeeva
layer carries J by Taylor series only on 2^14 points or more.  And numpy
elides temporaries of 256 KiB and more, which is exactly a 2^14-point
complex array: on a slice of that size an expression like ``a * b * c``
reuses its temporary in place, on a shorter one it does not, and numpy's
in-place and out-of-place complex products can round differently.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BiphotonError, GridOverflowError, ParameterError
from .faddeeva import _HUGE_RADIUS, ALONG_MIN_POINTS as _CHUNK
from .kernels import (doppler_responses, etalon_response, response_tangents,
                      sinc_phase, sinc_phase_tangent)
from .params import SystemParams

# a grid holds at least one slice of amplitude_at.  _CHUNK is also a
# multiple of transform_tangents' row length for every grid up to
# MAX_GRID_POINTS
MIN_GRID_POINTS = _CHUNK
# 64 MiB of complex amplitude, 16x the widest grid the tests and benchmark use
MAX_GRID_POINTS = 2**22
# |A| at the grid edge must fall below this fraction of the peak |A|
EDGE_DECAY = 1e-6
MAX_WIDENINGS = 3
# zero-padding factor of the DFT: halves the tau step below pi/delta_max
OVERSAMPLE = 2


@dataclass(frozen=True)
class DetuningGrid:
    """Uniform two-photon-detuning grid of ``n_points`` samples
    ``spacing`` apart on [-delta_max, delta_max] (units of Gamma).

    The samples are (k - (n - 1)/2) spacing for k = 0 .. n - 1: the
    offsets are exact half-integers, so the grid is symmetric about 0 bit
    for bit and, n being even, never holds delta = 0.  The grid
    :meth:`widened` returns has the same spacing, so its middle half is
    exactly this grid's samples.
    """

    spacing: float
    n_points: int

    def __post_init__(self):
        n = self.n_points
        if n < MIN_GRID_POINTS or (n & (n - 1)) != 0:
            raise ParameterError.on_field(
                "DetuningGrid.n_points", n,
                f"must be a power of two >= {MIN_GRID_POINTS}")
        if n > MAX_GRID_POINTS:
            raise GridOverflowError.on_field(
                "DetuningGrid.n_points", n,
                f"passes the {MAX_GRID_POINTS}-point limit")
        # the etalon squares delta, and delta_max**2 must stay finite
        if not (0.0 < self.spacing and self.delta_max < _HUGE_RADIUS):
            raise ParameterError.on_field(
                "DetuningGrid.delta_max", self.delta_max,
                f"must be positive and below {_HUGE_RADIUS:.0e} Gamma")

    @classmethod
    def spanning(cls, delta_max: float, n_points: int) -> "DetuningGrid":
        """The grid of ``n_points`` samples from -delta_max to delta_max,
        spaced 2 delta_max/(n_points - 1) apart; a span so small that
        the spacing underflows to 0 is refused."""
        # n_points below 2 goes on to the constructor, which refuses it
        spacing = 2.0 * delta_max / max(n_points - 1, 1)
        if spacing == 0.0 and delta_max > 0.0:
            raise ParameterError.on_field(
                "DetuningGrid.delta_max", delta_max,
                f"must be wide enough to space {n_points} points apart")
        return cls(spacing, n_points)

    @property
    def delta_max(self) -> float:
        """The outermost sample, the same float as ``values[-1]``."""
        return (self.n_points - 1) / 2 * self.spacing

    @property
    def values(self) -> np.ndarray:
        n = self.n_points
        return (np.arange(n) - (n - 1) / 2) * self.spacing

    def widened(self) -> "DetuningGrid":
        """The grid of twice the points at this spacing, so a little over
        twice the span; its middle half is this grid's samples."""
        return DetuningGrid(self.spacing, 2 * self.n_points)


def _next_pow2(n):
    return 1 << max(int(n) - 1, 1).bit_length()


def auto_grid(params: SystemParams) -> DetuningGrid:
    """Size the detuning grid from the sharpest spectral feature.

    The span is max(20 Gamma, 5 Gamma_e), wide enough that the quartic
    etalon roll-off dominates the edges.  The spacing resolves
    min(gamma_dec, Gamma_e/100) with at least 4 samples: the narrowest
    structure in A(delta) sits on the ground-state-decoherence scale,
    two orders below Gamma, and a grid tied to Gamma alone would alias it.
    A gamma_dec of exactly 0 is excluded from the minimum (the etalon
    scale then rules).  A scale so narrow that the grid would pass
    MAX_GRID_POINTS raises GridOverflowError naming it and the span, and
    the gamma_etalon that set the span when it is wider than 20 Gamma.
    """
    delta_max = max(20.0, 5.0 * params.gamma_etalon)
    scales = {"gamma_etalon": params.gamma_etalon / 100.0}
    if params.gamma_dec > 0.0:
        scales["gamma_dec"] = params.gamma_dec
    narrowest = min(scales, key=scales.get)
    scale = scales[narrowest]
    # points > MAX_GRID_POINTS, scaled by powers of two (exact) so as not
    # to divide by a scale that can be 0 or subnormal
    if delta_max / MAX_GRID_POINTS > scale / 8.0:
        etalon = (f" (set by gamma_etalon = {params.gamma_etalon:g})"
                  if delta_max > 20.0 else "")
        raise GridOverflowError(
            f"{narrowest} = {getattr(params, narrowest):g} over +-"
            f"{delta_max:g} Gamma{etalon} needs over {MAX_GRID_POINTS} points")
    points = 2.0 * delta_max / (scale / 4.0)
    return DetuningGrid.spanning(
        delta_max, max(MIN_GRID_POINTS, _next_pow2(math.ceil(points))))


@dataclass(frozen=True)
class SpectralAmplitude:
    """A(delta) sampled on a detuning grid.

    ``peak_magnitude`` is max |A|.  ``tangents``, when asked for, is the
    (3, n) array of dA with respect to b, Omega_c and gamma_dec on the
    same grid.
    """

    grid: DetuningGrid
    amplitude: np.ndarray
    peak_magnitude: float
    tangents: np.ndarray | None = None


def amplitude_at(delta, params: SystemParams, derivatives=False):
    """(A, dA): the integrand A(delta) along a 1-d array of detunings, and
    with ``derivatives`` its tangents dA, else None.

    The array is walked ``_CHUNK`` points at a time.  dA is the (3, n)
    array of the derivatives of A with respect to b, Omega_c and
    gamma_dec, and A is the same, bit for bit, with or without it.
    """
    amp = np.empty(delta.size, dtype=complex)
    d_amp = np.empty((3, delta.size), dtype=complex) if derivatives else None
    for lo in range(0, delta.size, _CHUNK):
        part = slice(lo, lo + _CHUNK)
        amp[part] = _amplitude(delta[part], params,
                               None if d_amp is None else d_amp[:, part])
    return amp, d_amp


def _assemble(s, kap, etalon):
    """S kappa B, taken in place in S: the one formula for A, so that A
    rounds alike with and without derivatives."""
    s *= kap
    s *= etalon
    return s


def _amplitude(delta, params: SystemParams, d_amp):
    """A on one slice, and with ``d_amp`` given, dA written into it.
    With S = sinc(rho) exp(i rho), A = kappa S B and
    dA = (d kappa S + kappa S'(rho) d rho) B.

    Extreme parameters drive intermediate products past the float range:
    a Doppler width far below Gamma (1e-300, say) or a kappa prefactor
    past 1e308.  They then come out inf or NaN without a warning, and
    :func:`_sample` reports the amplitude as NUMERICAL.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        etalon = etalon_response(delta, params.gamma_etalon)
        if d_amp is None:
            rho, kap = doppler_responses(delta, params)
            return _assemble(sinc_phase(rho), kap, etalon)
        rho, kap, responses = response_tangents(delta, params)
        s, ds = sinc_phase_tangent(rho)
        s_etalon = s * etalon       # before S turns into A in place
        kap_ds = _assemble(ds, kap, etalon)
        for row, (d_rho, d_kap) in zip(d_amp, responses):
            np.multiply(d_kap, s_etalon, out=row)
            d_rho *= kap_ds
            row += d_rho
        return _assemble(s, kap, etalon)


def _around(middle, n_points):
    """A new array of ``n_points`` samples along the last axis, with
    ``middle`` as its middle half; the outer quarters are left unset."""
    out = np.empty(middle.shape[:-1] + (n_points,), dtype=middle.dtype)
    out[..., n_points // 4:n_points - n_points // 4] = middle
    return out


def _ends(a):
    """The outer quarters of ``a`` along its last axis, joined."""
    q = a.shape[-1] // 4
    return np.concatenate((a[..., :q], a[..., -q:]), axis=-1)


def _set_ends(a, ends):
    """Write ``ends``, outer quarters joined as :func:`_ends` gives them,
    into ``a``."""
    q = a.shape[-1] // 4
    a[..., :q] = ends[..., :q]
    a[..., -q:] = ends[..., q:]


def _sample(delta, params, derivatives):
    """(A, dA or None, max |A|) on ``delta`` from one :func:`amplitude_at`
    call; raises NUMERICAL on an inf or NaN sample of A."""
    amp, tangents = amplitude_at(delta, params, derivatives)
    peak = float(np.max(np.abs(amp)))
    if not math.isfinite(peak):
        raise BiphotonError("spectral amplitude is not finite")
    return amp, tangents, peak


def sample_spectral_amplitude(params: SystemParams,
                              grid_hint: DetuningGrid | None = None,
                              derivatives: bool = False) -> SpectralAmplitude:
    """Sample A(delta), widening the grid until the edges have decayed.

    Starts from ``grid_hint`` or the auto-sized grid and widens it
    (:meth:`DetuningGrid.widened`: twice the points at the same spacing)
    until |A| at both edges is below 1e-6 of the peak, giving up after 3
    widenings.  The samples already taken are the middle half of the
    widened grid, so a widening evaluates A only on its two new outer
    quarters, joined into one :func:`amplitude_at` call: the joined array
    has n points, a multiple of 2^14, so it is walked in whole slices as
    the full grid would be, and A there is the same, bit for bit.  A
    pump-free amplitude is identically zero and returned as-is.  An
    amplitude with an inf or NaN sample raises on the grid that has it, as
    NUMERICAL, without widening.

    With ``derivatives``, A and its ``tangents`` come from the same
    passes of :func:`amplitude_at`; A is the same, bit for bit, as
    without.
    """
    grid = grid_hint if grid_hint is not None else auto_grid(params)
    delta = grid.values
    amp, tangents, peak = _sample(delta, params, derivatives)
    for widenings in range(MAX_WIDENINGS + 1):
        if max(abs(amp[0]), abs(amp[-1])) <= EDGE_DECAY * peak:
            return SpectralAmplitude(grid, amp, peak, tangents)
        # past MAX_GRID_POINTS, widened() raises before the decay error
        grid = grid.widened()
        if widenings == MAX_WIDENINGS:
            break
        # taken before the amplitude is moved: in the other order the peak
        # RSS was 6 MB higher after a 2^17-point widening
        delta = grid.values
        # rebinding frees the parent's arrays before the new samples exist
        amp = _around(amp, grid.n_points)
        if tangents is not None:
            tangents = _around(tangents, grid.n_points)
        delta = _ends(delta)
        ends, d_ends, ends_peak = _sample(delta, params, derivatives)
        _set_ends(amp, ends)
        if tangents is not None:
            _set_ends(tangents, d_ends)
        peak = max(peak, ends_peak)
    raise GridOverflowError(
        f"spectral amplitude does not decay below {EDGE_DECAY:.0e} of its "
        f"peak within {MAX_WIDENINGS} grid widenings")


@dataclass(frozen=True)
class WavePacket:
    """G2 on a uniform delay-time grid (tau in 1/Gamma, g2 arbitrary units)."""

    tau: np.ndarray
    g2: np.ndarray


def wave_packet(sa: SpectralAmplitude) -> WavePacket:
    """Transform the spectral amplitude to the delay-time domain.

    The DFT is zero-padded by OVERSAMPLE, so the tau step is half the
    Nyquist step pi/delta_max.  The tau grid spans one full period
    2 pi/spacing, which exceeds any wave-packet support by orders of
    magnitude, so Parseval holds on it to rounding error.
    """
    grid = sa.grid
    d_delta = grid.spacing
    n = grid.n_points
    m = n * OVERSAMPLE

    # the end-halved amplitude, zero-padded and transformed in place
    g = np.zeros(m, dtype=complex)
    g[:n] = sa.amplitude
    g[0] *= 0.5
    g[n - 1] *= 0.5
    np.fft.fft(g, out=g)
    g *= d_delta / (2.0 * np.pi)
    g2 = np.abs(g) ** 2
    del g       # before the shift copies g2
    # tau_k = 2 pi k/(M d_delta) for k = -M/2 .. M/2 - 1
    tau = 2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(m, d=d_delta))
    return WavePacket(tau, np.fft.fftshift(g2))


def transform_tangents(sa: SpectralAmplitude, indices):
    """The transform of ``sa`` at tau ``indices``, to first order in (b,
    Omega_c, gamma_dec), from its amplitude and tangents, without an FFT.

    Returns (G, dG, dE): G at the indices, dG (3, K) its derivatives, and
    dE (3,) the derivatives 2 Re<a, da> of sum |a|^2 over the end-halved
    amplitude a.  ``indices`` index the increasing tau grid of :func:`wave_packet`; each
    sample is the direct sum (d_delta/2pi) sum_j a_j exp(-2 pi i j k/M)
    with k its unshifted DFT index.  The roots of unity factor over
    j = r B + c, B ~ sqrt(n), into an (n/B, K) and a (B, K) table, so a
    sum is one small matrix product; the phases are reduced mod M in
    integers before the exponential.  The grid is summed ``_CHUNK``
    points at a time, so no temporary of the grid's size is formed.  The
    energy sums are numpy reductions, not BLAS dot products, whose
    summation order would change with the BLAS thread count.
    """
    n = sa.grid.n_points
    m = n * OVERSAMPLE
    k = (np.asarray(indices, dtype=np.int64) + m // 2) % m
    block = 1 << (n.bit_length() - 1) // 2
    c = np.arange(block, dtype=np.int64)[:, None]
    r = np.arange(n // block, dtype=np.int64)[:, None]
    inner = np.exp((-2j * np.pi / m) * ((c * k) % m))
    outer = np.exp((-2j * np.pi / m) * ((r * block * k) % m))
    g = np.zeros(k.size, dtype=complex)
    d_g = np.zeros((3, k.size), dtype=complex)
    d_energy = np.zeros(3)
    for lo in range(0, n, _CHUNK):
        part = slice(lo, lo + _CHUNK)
        amp, d_amp = sa.amplitude[part], sa.tangents[:, part]
        # trapezoid weights: the grid's two end samples count half
        ends = [i for i, at_end in ((0, lo == 0), (-1, lo + _CHUNK == n))
                if at_end]
        if ends:
            amp, d_amp = amp.copy(), d_amp.copy()
            amp[ends] *= 0.5
            d_amp[:, ends] *= 0.5
        rows = outer[lo // block:(lo + _CHUNK) // block]
        g += np.sum(np.dot(amp.reshape(-1, block), inner) * rows, axis=0)
        amp_conj = amp.conj()
        for col, d_col in enumerate(d_amp):
            d_g[col] += np.sum(np.dot(d_col.reshape(-1, block), inner)
                               * rows, axis=0)
            d_energy[col] += 2.0 * np.sum((amp_conj * d_col).real)
    scale = sa.grid.spacing / (2.0 * np.pi)
    return scale * g, scale * d_g, d_energy


def biphoton_spectrum(sa: SpectralAmplitude) -> np.ndarray:
    """|A(delta)|^2 over the grid, normalized to unit peak."""
    power = np.abs(sa.amplitude) ** 2
    # max |A|^2, the same float as the largest entry of power: squaring
    # rounds monotonically
    peak = sa.peak_magnitude * sa.peak_magnitude
    if peak == 0.0:
        raise ParameterError("empty spectrum: amplitude is identically zero")
    return power / peak
