"""Doppler-averaged response kernels of the biphoton source.

Three complex response functions of the two-photon detuning delta drive
the spectral amplitude:

* ``kappa_bar``  -- cross-coupling between the signal and probe photons
  (the four-wave-mixing gain),
* ``rho_c_bar``  -- probe self-response of the coherently prepared atoms
  (the EIT medium),
* ``rho_m_bar``  -- probe self-response of the impurity atoms, which act
  as bare two-level absorbers.

Each is a thermal average over the Doppler shift omega_D with the Gaussian
weight exp(-omega_D^2/Gamma_D^2)/(sqrt(pi) Gamma_D).  Because every
integrand is a rational function of omega_D with simple poles off the real
axis, the average reduces exactly to Faddeeva evaluations of the Gaussian
pole integral J, which is the only way the package evaluates the kernels.
rho_c_bar and kappa_bar share the coupling-dressed pole omega_0(delta),
so ``doppler_responses`` gives (rho_c_bar + rho_m_bar, kappa_bar) with
J(omega_0/Gamma_D) evaluated once.  Each formula is written once, in
private pieces that the three public kernels and ``doppler_responses``
build from.
``response_tangents`` adds the derivatives of both responses in (b,
Omega_c, gamma_dec), in closed form from the same J arrays (J' = -2 zeta
J - 2).  kappa is a divided difference D of J between the pump pole
omega_1 and the dressed pole.  One pole split per pass serves kappa and
its tangents: the pump-line integral J(omega_1/Gamma_D), which does not
move with delta, and where the two poles merge, the pair (D, dD/dzeta_0)
from one :func:`~biphoton.faddeeva.gaussian_pole_difference` call, which
a pass where nothing merges skips.

Both array arguments of J, the impurity line and the dressed pole, are
dense samples of a path over the detuning grid, and go through
:func:`~biphoton.faddeeva.gaussian_pole_integral_along`: J is evaluated
pointwise at the middle of each block of 32 detunings and carried to the
rest of the block by its Taylor series, where the block is narrow enough
(the rules and the error bound are in the :mod:`~biphoton.faddeeva`
docstring).  A pass hands it both paths and the pump pole zeta_1, so
that one pointwise Faddeeva call serves them all.  Every kernel takes a
1-d array of detunings.  Arrays shorter than 2^14 detunings are evaluated
pointwise, so a kernel there gives each detuning the same bits as an
array of that detuning alone.  On 2^14 or more detunings, the size of
every grid the package samples, each J agrees with pointwise J within
that bound, 5e-14 relative, not bit for bit.  A kernel passes that on
as it passes on J's own error of up to 3e-13: magnified where its formula
cancels, most in kappa's divided difference next to the merged-pole
band (up to 8e-12 relative measured on auto grids, gamma_dec = 0
included).  ``doppler_responses``,
``response_tangents`` and the three public kernels take the same path,
so they stay equal to each other bit for bit.  A grid sliced at
multiples of 2^14 gives the same bits as the whole:
:func:`~biphoton.wavepacket.amplitude_at`, the one caller that walks a
grid, relies on that to evaluate it 2^14 detunings at a time.  So does a
grid widening, which evaluates only its two new outer quarters, joined
into whole slices.  Every slice holds exactly 2^14 detunings, so every
complex temporary of these formulas is 256 KiB, numpy's threshold for
eliding temporaries: a slice of another size could take an out-of-place
product where a 2^14-point slice takes an in-place one, and numpy's two
complex products can round differently.  Special points are
substituted and patched, never gathered out, so every formula runs on
the whole slice: where the poles merge, kappa takes the series' values,
and on the exact two-photon resonance q = 0 (|q| <= 1e-200) q is taken
as 1 and the results are overwritten with their limits.  Where no pole
merges, or no point sits on q = 0, the kernels skip the selects and
masked writes, which would change no value.

The section marked "test reference" holds the integrands themselves and a
brute-force Gaussian average by dense trapezoid or adaptive Simpson
quadrature, the oracles the tests compare the kernels against, and the
sin-based ``complex_sinc`` and ``sinc_phase_derivative`` that
``sinc_phase`` and ``sinc_phase_tangent`` are checked against.  Nothing
in the package calls it.

Sign convention: all three responses enter the amplitude through
S(rho) = sinc(rho) * exp(i rho) (``sinc_phase``), so a *positive*
imaginary part attenuates the probe.  rho_m_bar is written in that
absorbing convention (its imaginary part is strictly positive for all
real delta), which is also the two-level limit (Omega_c -> 0) of
rho_c_bar.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, ParameterError
from .faddeeva import (SQRT_PI, gaussian_pole_difference,
                       gaussian_pole_integral_along, split_apply)
from .params import SystemParams

# |delta + i*gamma_dec| below this is treated as exactly on two-photon
# resonance with gamma_dec = 0; keeps the pole Omega_c^2/(4q) finite.
_Q_FLOOR = 1e-200
# relative pole separation below which the partial-fraction split of
# kappa_bar cancels and the divided-difference series is used instead
_POLE_MERGE_RTOL = 1e-3


def etalon_response(delta, gamma_etalon):
    """Squared-Lorentzian transmission of the combined filter etalons.

    B(delta) = (1 + 4 delta^2 / Gamma_e^2)^-2, bounded in (0, 1], even in
    delta and monotone decreasing in |delta|.
    """
    if not gamma_etalon > 0:
        raise ParameterError("gamma_etalon must be positive")
    return (1.0 / (1.0 + 4.0 * delta**2 / gamma_etalon**2)) ** 2


# Below these |z| the closed forms S = (E - 1)/(2iz) and S' = (E - S)/z,
# E = exp(2iz), lose about eps/|z| and eps/|z|^2 relative to cancellation,
# so their Taylor series are summed instead: S = sum (2iz)^k/(k+1)! and
# S' = sum (k+1) (2i)^(k+1) z^k/(k+2)!, each to below 2e-16.
_SINC_PHASE_CUTOFF = 0.05
_SINC_PHASE_SLOPE_CUTOFF = 0.2
_SINC_PHASE_SERIES = [(2j) ** k / math.factorial(k + 1) for k in range(10)]
_SINC_PHASE_SLOPE_SERIES = [(k + 1) * (2j) ** (k + 1) / math.factorial(k + 2)
                            for k in range(14)]


def sinc_phase(z):
    """S(z) = sinc(z) exp(iz) = (exp(2iz) - 1)/(2iz) at each point of a
    1-d complex array ``z``, from one complex exponential.

    Rounding leaves an absolute error of about eps (1 + |exp(2iz)|)/|2z|.
    That is within 1e-14 of S relative, and of :func:`complex_sinc`
    times exp(iz), except close to a zero of sin(z), where S is near
    zero and the sin-based form keeps more of its relative digits.  With
    Im(z) large and positive, exp(2iz) underflows to 0 and S = i/(2z)
    stays exact, where sin(z) itself would overflow.
    """
    z = np.asarray(z, dtype=complex)
    return _sinc_phase(z, np.exp(2j * z))


def sinc_phase_tangent(z):
    """(S(z), S'(z)) for an array ``z``: S equals :func:`sinc_phase` bit
    for bit, and S' = (exp(2iz) - S)/z comes from the same exponential."""
    e2 = np.exp(2j * z)
    s = _sinc_phase(z, e2)
    small = np.abs(z) < _SINC_PHASE_SLOPE_CUTOFF
    e2 -= s
    np.divide(e2, z, out=e2, where=~small)
    return s, _series_below(e2, z, small, _SINC_PHASE_SLOPE_SERIES)


def _sinc_phase(z, e2):
    """S from e2 = exp(2iz), in a new array; the closed form is taken in
    place in it, with no other complex temporary of the array's size."""
    small = np.abs(z) < _SINC_PHASE_CUTOFF
    s = e2 - 1.0
    np.divide(s, z, out=s, where=~small)
    s *= -0.5j                  # 1/(2i), exact
    return _series_below(s, z, small, _SINC_PHASE_SERIES)


def _series_below(out, z, small, series):
    """``out`` with its entries where ``small`` holds replaced by the
    power series in z with coefficients ``series`` (lowest order first)."""
    if small.any():
        zs = z[small]
        p = np.full_like(zs, series[-1])
        for c in series[-2::-1]:
            p = p * zs + c
        out[small] = p
    return out


# ---------------------------------------------------------------------------
# test reference: sin-based sinc and S', the integrands and brute-force
# Doppler averages.  The oracle value of a kernel is
# doppler_average(<kernel>_integrand(delta, params), params, spec); tests
# and the benchmark tracer reach these here.

_SINC_SERIES_CUTOFF = 1e-4


def complex_sinc(z):
    """sin(z)/z at each point of a 1-d complex array ``z``, with the
    removable singularity filled in.

    Below |z| = 1e-4 the Taylor series 1 - z^2/6 + z^4/120 is used; its
    truncation error there is ~1e-29, so the two branches agree to well
    under 1e-12 across the switchover.  The amplitude takes
    sinc(z) exp(iz) from :func:`sinc_phase`; this is its reference.
    """
    z = np.asarray(z, dtype=complex)
    return split_apply(z, np.abs(z) < _SINC_SERIES_CUTOFF, _sinc_series,
                       lambda zb: np.sin(zb) / zb)


def _sinc_series(z):
    z2 = z**2
    return 1.0 - z2 / 6.0 + z2**2 / 120.0


def sinc_phase_derivative(z, sinc_phase, phase):
    """d/dz of S(z) = sinc(z) exp(iz) for an array ``z``, given S(z) and
    exp(iz) there.

    S = (exp(2iz) - 1)/(2iz), so S' = (exp(2iz) - S)/z.  Below the sinc
    series cutoff |z| = 1e-4 the series i - 4z/3 - iz^2 + 8z^3/15 is used
    instead; its truncation error there is ~1e-16.  The amplitude's
    tangents take S' from :func:`sinc_phase_tangent`; this is its
    reference.
    """
    small = np.abs(z) < _SINC_SERIES_CUTOFF
    if not small.any():
        return (phase * phase - sinc_phase) / z
    big = ~small
    out = np.empty_like(sinc_phase)
    out[big] = (phase[big] * phase[big] - sinc_phase[big]) / z[big]
    zs = z[small]
    out[small] = 1j - zs * (4.0 / 3.0 + zs * (1j - zs * (8.0 / 15.0)))
    return out


METHOD_TRAPEZOID = "dense_trapezoid"
METHOD_ADAPTIVE = "adaptive_panels"
_METHODS = (METHOD_ADAPTIVE, METHOD_TRAPEZOID)


@dataclass(frozen=True)
class QuadratureSpec:
    """How the reference quadrature evaluates a Doppler average.

    ``support_halfwidth`` truncates the Gaussian integral at that many
    Doppler widths; the default 8 leaves a tail mass below 1e-27, far
    under every tolerance used in the package.
    """

    method: str = METHOD_TRAPEZOID
    panel_tolerance: float = 1e-10
    trapezoid_points: int = 1_000_000
    support_halfwidth: float = 8.0
    max_panels: int = 20_000

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ParameterError(f"unknown quadrature method {self.method!r}")
        if not self.panel_tolerance > 0:
            raise ParameterError("panel_tolerance must be positive")
        if self.trapezoid_points < 1000:
            raise ParameterError("trapezoid_points must be >= 1000")
        if self.support_halfwidth < 6:
            raise ParameterError("support_halfwidth must be >= 6")
        if self.max_panels < 16:
            raise ParameterError("max_panels must be >= 16")


def doppler_average(integrand, params: SystemParams, quad: QuadratureSpec):
    """Gaussian-weighted average of ``integrand(omega_D)`` by quadrature.

    Integrates exp(-w^2/Gamma_D^2)/(sqrt(pi) Gamma_D) * integrand(w) over
    w in [-h*Gamma_D, +h*Gamma_D].  ``integrand`` must accept numpy
    arrays.  Summation order is fixed, so results are bit-identical for a
    fixed spec.
    """
    gd = params.gamma_doppler
    half = quad.support_halfwidth * gd

    def weighted(w):
        return np.exp(-(w / gd) ** 2) / (SQRT_PI * gd) * integrand(w)

    if quad.method == METHOD_TRAPEZOID:
        w = np.linspace(-half, half, quad.trapezoid_points)
        return complex(np.trapezoid(weighted(w), w))
    return _adaptive_panels(weighted, -half, half,
                            quad.panel_tolerance, quad.max_panels)


def _adaptive_panels(f, a, b, rel_tol, max_panels):
    """Adaptive Simpson quadrature for a complex vector-callable integrand.

    Left-to-right recursion with Richardson acceptance, so panel order and
    the final sum are deterministic.  Raises ConvergenceError carrying the
    worst panel estimate if the budget runs out.
    """
    # seed scale for the relative tolerance from a coarse pass
    xs = np.linspace(a, b, 33)
    scale = float(np.max(np.abs(f(xs)))) * (b - a)
    if scale == 0.0:
        scale = 1.0
    tol = rel_tol * scale

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    total = 0.0 + 0.0j
    worst = 0.0
    panels = 0
    # explicit stack, rightmost pushed first so traversal is left-to-right
    m0 = 0.5 * (a + b)
    fa, fm, fb = (complex(f(np.array([x]))[0]) for x in (a, m0, b))
    stack = [(a, b, fa, fm, fb, simpson(a, b, fa, fm, fb), tol)]
    while stack:
        x0, x2, f0, f1, f2, s_whole, tol_here = stack.pop()
        xm = 0.5 * (x0 + x2)
        xl = 0.5 * (x0 + xm)
        xr = 0.5 * (xm + x2)
        fl, fr = (complex(f(np.array([x]))[0]) for x in (xl, xr))
        s_left = simpson(x0, xm, f0, fl, f1)
        s_right = simpson(xm, x2, f1, fr, f2)
        err = abs(s_left + s_right - s_whole)
        panels += 1
        if panels > max_panels:
            raise ConvergenceError(
                "adaptive quadrature exceeded its panel budget",
                achieved_tolerance=max(worst, err / 15.0) / scale)
        if err <= 15.0 * tol_here or (x2 - x0) < 1e-12 * (b - a):
            total += s_left + s_right + (s_left + s_right - s_whole) / 15.0
            worst = max(worst, err / 15.0)
        else:
            # push right first so the left half is processed next
            stack.append((xm, x2, f1, fr, f2, s_right, tol_here / 2.0))
            stack.append((x0, xm, f0, fl, f1, s_left, tol_here / 2.0))
    return complex(total)


def rho_m_integrand(delta, p: SystemParams):
    """Impurity (two-level) response before Doppler averaging, absorbing sign."""
    pref = p.b * p.alpha / 2.0

    def f(w):
        return -pref / (4.0 * (delta + p.delta_c + w + 0.5j))

    return f


def rho_c_integrand(delta, p: SystemParams):
    """EIT response before Doppler averaging.

    For Omega_c = 0 the (delta + i gamma) factor cancels exactly against
    the denominator, leaving the two-level form; the cancelled form is
    used there so delta = gamma_dec = 0 stays finite.
    """
    q = delta + 1j * p.gamma_dec
    pref = (1.0 - p.b) * p.alpha / 2.0

    if p.omega_c == 0.0:
        def f(w):
            return -pref / (4.0 * (delta + p.delta_c + w + 0.5j))
    else:
        def f(w):
            denom = p.omega_c**2 - 4.0 * q * (delta + p.delta_c + w + 0.5j)
            return pref * q / denom

    return f


def kappa_integrand(delta, p: SystemParams):
    """Signal-probe cross-coupling before Doppler averaging."""
    q = delta + 1j * p.gamma_dec
    pref = (1.0 - p.b) * p.alpha / 4.0

    def f(w):
        pump = p.omega_p / (p.delta_p + w + 0.5j)
        denom = p.omega_c**2 - 4.0 * q * (delta + p.delta_c + w + 0.5j)
        return pref * pump * p.omega_c / denom

    return f


# ---------------------------------------------------------------------------
# analytic reductions

def _probe_pole(d, params: SystemParams):
    return d + params.delta_c + 0.5j


def _impurity_line(p_pole, params: SystemParams):
    """The impurity line's poles -P/Gamma_D; every evaluation of the line
    starts here."""
    return -p_pole / params.gamma_doppler


def _pump_pole(params: SystemParams):
    return -params.delta_p - 0.5j


def _rho_m(line, params: SystemParams):
    pref = params.b * params.alpha / 2.0
    return -pref / (4.0 * params.gamma_doppler) * line


class _DressedPole(NamedTuple):
    """What rho_c_bar and kappa_bar share: q = delta + i gamma_dec, the
    dressed pole ``omega0``, ``zeta0`` = omega_0/Gamma_D and its J.  q is
    taken as 1 at the ``resonant`` points, those on q = 0 (None if there
    are none), and the kernels overwrite their results there."""

    q: np.ndarray
    resonant: np.ndarray | None
    omega0: np.ndarray
    zeta0: np.ndarray
    j0: np.ndarray


def _dressed_pole(d, params: SystemParams):
    """(dp, line, j1): the :class:`_DressedPole` at ``d`` and, from the
    same :func:`~biphoton.faddeeva.gaussian_pole_integral_along` call,
    the impurity line and J(omega_1/Gamma_D), or None with the pump
    off."""
    gd = params.gamma_doppler
    q = d + 1j * params.gamma_dec
    p_pole = _probe_pole(d, params)
    resonant = None
    if params.gamma_dec <= _Q_FLOOR:    # else |q| >= gamma_dec
        at_zero = np.abs(q) <= _Q_FLOOR
        if at_zero.any():
            resonant = at_zero
            q[resonant] = 1.0
    omega0 = params.omega_c**2 / (4.0 * q) - p_pole
    zeta0 = omega0 / gd
    pump = params.omega_p != 0.0
    j = gaussian_pole_integral_along(
        zeta0, _impurity_line(p_pole, params),
        points=np.array([_pump_pole(params) / gd]) if pump else None)
    return (_DressedPole(q, resonant, omega0, zeta0, j[0]), j[1],
            complex(j[2][0]) if pump else None)


def _rho_c(dp: _DressedPole, params: SystemParams):
    pref = (1.0 - params.b) * params.alpha / (8.0 * params.gamma_doppler)
    out = -pref * dp.j0
    # the numerator q kills the response on resonance; at Omega_c = 0 the
    # dressed pole is the impurity line's, the cancelled two-level limit
    if dp.resonant is not None and params.omega_c != 0.0:
        out[dp.resonant] = 0.0
    return out


class _PoleSplit(NamedTuple):
    """What kappa and its slopes take from the pump pole ``omega1`` in one
    pass: ``j1`` = J(omega_1/Gamma_D), which does not move with delta,
    the points where omega_1 and the dressed pole are too close to
    difference J (``merged``), and there the divided difference D and
    dD/dzeta_0 by series (``diff``, ``diff_zeta``, empty where nothing
    merges)."""

    omega1: complex
    j1: complex
    merged: np.ndarray
    diff: np.ndarray
    diff_zeta: np.ndarray

    @property
    def merging(self) -> bool:
        """Whether any point merges; where none does, kappa and its
        slopes skip the select and the masked writes, which would change
        no value."""
        return self.diff.size > 0


def _pole_split(dp: _DressedPole, params: SystemParams, j1):
    """The pass's :class:`_PoleSplit` with J(omega_1/Gamma_D) = ``j1``, or
    None with the pump off."""
    if params.omega_p == 0.0:
        return None
    gd = params.gamma_doppler
    omega1 = _pump_pole(params)
    merged = np.abs(omega1 - dp.omega0) < _POLE_MERGE_RTOL * np.maximum(
        gd, np.maximum(abs(omega1), np.abs(dp.omega0)))
    if not merged.any():
        empty = np.empty(0, dtype=complex)
        return _PoleSplit(omega1, j1, merged, empty, empty)
    return _PoleSplit(omega1, j1, merged, *gaussian_pole_difference(
        dp.zeta0[merged], omega1 / gd))


def _kappa(dp: _DressedPole, params: SystemParams, split: _PoleSplit):
    gd = params.gamma_doppler
    if params.omega_p == 0.0 or params.omega_c == 0.0:
        return np.zeros(dp.q.shape, dtype=complex)

    sep = split.omega1 - dp.omega0
    if split.merging:
        sep = np.where(split.merged, 1.0, sep)
    # the prefactor overflows past alpha Omega_p Omega_c ~ 1e308, and
    # gd**2 underflows to 0 below gd = 1e-154; the amplitude is then not
    # finite, which sample_spectral_amplitude reports, so no warning
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        pref = -(1.0 - params.b) * params.alpha * \
            params.omega_p * params.omega_c / (16.0 * dp.q)
        vals = pref * (split.j1 - dp.j0) / sep / gd
        if split.merging:
            vals[split.merged] = pref[split.merged] * split.diff / gd**2
    if dp.resonant is not None:
        # coupling factor is the constant Gamma/Omega_c on resonance
        pref0 = (1.0 - params.b) * params.alpha / 4.0 * \
            params.omega_p / params.omega_c
        vals[dp.resonant] = pref0 * split.j1 / gd
    return vals


def rho_m_bar(delta, params: SystemParams):
    """Doppler-averaged impurity response at two-photon detuning ``delta``.

    Prefactor b*alpha/2 on the averaged two-level line J(-P/Gamma_D),
    P = delta + Delta_c + i Gamma/2; the imaginary part is strictly
    positive (pure absorber).
    """
    line = gaussian_pole_integral_along(
        _impurity_line(_probe_pole(delta, params), params))[0]
    return _rho_m(line, params)


def rho_c_bar(delta, params: SystemParams):
    """Doppler-averaged EIT response at two-photon detuning ``delta``.

    The denominator is linear in the Doppler shift, so the average is a
    single Gaussian pole integral at omega_0 = Omega_c^2/(4 q) - P with
    q = delta + i gamma_dec and P = delta + Delta_c + i Gamma/2.  On exact
    two-photon resonance with gamma_dec = 0 the response vanishes (or, if
    Omega_c = 0 as well, reduces to the two-level line).
    """
    return _rho_c(_dressed_pole(delta, params)[0], params)


def kappa_bar(delta, params: SystemParams):
    """Doppler-averaged signal-probe cross-coupling at detuning ``delta``.

    Two simple poles in the Doppler shift (pump line at
    omega_1 = -Delta_p - i Gamma/2 and the coupling-dressed pole omega_0);
    partial fractions reduce the average to the divided difference
    (J(zeta_1) - J(zeta_0))/(zeta_1 - zeta_0) at zeta = omega/Gamma_D.
    Below a relative pole separation of 1e-3 that difference is summed as
    a series (:func:`~biphoton.faddeeva.gaussian_pole_difference`), so the
    merged poles of gamma_dec = 0 stay accurate to 1e-10.
    """
    dp, _, j1 = _dressed_pole(delta, params)
    return _kappa(dp, params, _pole_split(dp, params, j1))


def doppler_responses(delta, params: SystemParams):
    """(rho_c_bar + rho_m_bar, kappa_bar) at ``delta`` in one pass.

    The values equal the three public kernels bit for bit, but the
    dressed-pole integral J(omega_0/Gamma_D) is evaluated once and shared
    by rho_c_bar and kappa_bar, and one pointwise Faddeeva call serves it,
    the impurity line and the pump pole.
    """
    _, _, _, rho, kap = _responses(delta, params)
    return rho, kap


def _responses(d, params: SystemParams):
    """The dressed pole, the impurity line, the pole split, rho and kappa
    at ``d``."""
    dp, line, j1 = _dressed_pole(d, params)
    split = _pole_split(dp, params, j1)
    rho = _rho_c(dp, params) + _rho_m(line, params)
    return dp, line, split, rho, _kappa(dp, params, split)


def response_tangents(delta, params: SystemParams):
    """``doppler_responses`` at ``delta``, with its derivatives.

    Returns (rho, kappa, tangents): rho and kappa equal
    ``doppler_responses`` bit for bit, and ``tangents`` is the list of the
    three pairs (d rho, d kappa) with respect to b, Omega_c and gamma_dec
    in turn, each from the J arrays already at hand:

    * rho_c and kappa scale with (1 - b) and rho_m with b, so the b pair
      costs no Faddeeva work at all;
    * the dressed pole zeta_0 = omega_0/Gamma_D moves with
      d omega_0/d Omega_c = Omega_c/(2q) and d omega_0/d gamma_dec =
      -i Omega_c^2/(4q^2), and J' = -2 zeta J - 2;
    * kappa's divided difference D moves with (D - J'(zeta_0))/(zeta_1 -
      zeta_0), or, where the poles merge, with the dD/dzeta_0 that
      :func:`~biphoton.faddeeva.gaussian_pole_difference` pairs with D.
      kappa and its slopes share one pole split: the merged points and
      their (D, dD/dzeta_0) series are evaluated once per call.

    On exact two-photon resonance with gamma_dec = 0 (q = 0, never a
    sample of a zero-symmetric grid with an even number of points) every
    formula is evaluated at q = 1 and then overwritten: the kappa
    derivatives are zero there, and of the rho derivatives only d rho_m/d
    b is carried.  At Omega_c = 0, where rho is the two-level line there
    too, the rho derivatives keep their evaluated values.
    """
    dp, line, split, rho, kap = _responses(delta, params)
    return rho, kap, _tangents(dp, line, split, params)


def _tangents(dp: _DressedPole, line, split, params: SystemParams):
    gd = params.gamma_doppler
    omega_c = params.omega_c
    keep = 1.0 - params.b
    inv_q = 1.0 / dp.q
    zeta0 = dp.zeta0
    j0_prime = -2.0 * zeta0 * dp.j0 - 2.0
    c = params.alpha / (8.0 * gd)
    # d rho/d zeta_0
    rho_zeta = -keep * c * j0_prime
    kap_unit, kap_zeta = _kappa_slopes(dp, split, params, zeta0, j0_prime,
                                       inv_q)
    # d zeta_0 = Omega_c/(2 q Gamma_D) per unit Omega_c and
    # -i Omega_c^2/(4 q^2 Gamma_D) per unit gamma_dec, and d(1/q) = -i/q^2
    zeta_c = (omega_c / (2.0 * gd)) * inv_q
    zeta_g = (-0.25j * omega_c**2 / gd) * inv_q * inv_q
    tangents = [
        # b
        (c * dp.j0 - c * line, -omega_c * kap_unit),
        # Omega_c
        (rho_zeta * zeta_c, keep * kap_unit + kap_zeta * zeta_c),
        # gamma_dec
        (rho_zeta * zeta_g,
         (-1j * keep * omega_c) * kap_unit * inv_q + kap_zeta * zeta_g)]
    if dp.resonant is not None:
        for _, d_kap in tangents:
            d_kap[dp.resonant] = 0.0
        # as in _rho_c: at Omega_c = 0, rho keeps the two-level line there
        if omega_c != 0.0:      # only d rho_m/d b moves
            tangents[0][0][dp.resonant] = -c * line[dp.resonant]
            for d_rho, _ in tangents[1:]:
                d_rho[dp.resonant] = 0.0
    return tangents


def _kappa_slopes(dp: _DressedPole, split, params: SystemParams, zeta0,
                  j0_prime, inv_q):
    """(kap_unit, kap_zeta) of ``_tangents``: kappa = (1 - b) Omega_c
    kap_unit, and kap_zeta = (1 - b) Omega_c d kap_unit/d zeta_0.

    A function of its own so that its temporaries are freed before the
    tangents are built: holding them until then costs the derivative
    pass about a quarter of its time in page faults.
    """
    if split is None:
        zero = np.zeros_like(inv_q)
        return zero, zero
    gd = params.gamma_doppler
    sep = split.omega1 / gd - zeta0
    if split.merging:
        sep = np.where(split.merged, 1.0, sep)
    diff = (split.j1 - dp.j0) / sep
    diff_zeta = (diff - j0_prime) / sep
    if split.merging:
        diff[split.merged] = split.diff
        diff_zeta[split.merged] = split.diff_zeta
    # np.divide, not /: a gd**2 that underflows to 0 gives inf, and
    # forward.predict reports the tangents as not finite
    k_unit = np.divide(-params.alpha * params.omega_p, 16.0 * gd**2) * inv_q
    return (k_unit * diff,
            ((1.0 - params.b) * params.omega_c) * k_unit * diff_zeta)
