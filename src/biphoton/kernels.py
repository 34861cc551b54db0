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

All three come from one private pass over an array of detunings, which
the three public kernels and ``doppler_responses`` share.  The pass
forms q = delta + i gamma_dec and the coupling-dressed pole
omega_0(delta), which rho_c_bar and kappa_bar share, once; takes J at
the dressed pole, at the impurity line and at the pump pole omega_1
from one Faddeeva call; and, where omega_1 and the dressed pole merge,
takes kappa's divided difference D of J and dD/dzeta_0 from one
:func:`~biphoton.faddeeva.gaussian_pole_difference` call, which a pass
where nothing merges skips.  ``doppler_responses`` returns
(rho_c_bar + rho_m_bar, kappa_bar) and, with ``derivatives``, their
derivatives in (b, Omega_c, gamma_dec), in closed form from the same J
arrays (J' = -2 zeta J - 2).  Each formula is written once.

Both array arguments of J, the impurity line and the dressed pole, are
dense samples of a path over the detuning grid, and go through
:func:`~biphoton.faddeeva.gaussian_pole_integral_along`: J is evaluated
pointwise at the middle of each block of 32 detunings and carried to the
rest of the block by its Taylor series, where the block is narrow enough
(the rules and the error bound are in the :mod:`~biphoton.faddeeva`
docstring).  Every kernel takes a 1-d array of detunings.  Arrays
shorter than 2^14 detunings are evaluated pointwise, so a kernel there
gives each detuning the same bits as an array of that detuning alone.
On 2^14 or more detunings, the size of every grid the package samples,
each J agrees with pointwise J within that bound, 5e-14 relative, not
bit for bit.  A kernel passes that on as it passes on J's own error of
up to 3e-13: magnified where its formula cancels, most in kappa's
divided difference next to the merged-pole band (up to 8e-12 relative
measured on auto grids, gamma_dec = 0 included).  Since every kernel is
the same pass, they stay equal to each other bit for bit, with
derivatives and without.  A grid sliced at multiples of 2^14 gives the
same bits as the whole: :func:`~biphoton.wavepacket.amplitude_at`, the
one caller that walks a grid, relies on that to evaluate a grid's core
2^14 detunings at a time; the sparse nodes of a grid widening go
through one short call of their own, which is evaluated pointwise.
Every slice of a core holds exactly 2^14 detunings, so every complex
temporary of these formulas is 256 KiB, numpy's threshold for eliding
temporaries: a slice of another size could take an out-of-place
product where a 2^14-point slice takes an in-place one, and numpy's two
complex products can round differently.  Special points are
substituted and patched, never gathered out, so every formula runs on
the whole slice: where the poles merge, kappa takes the series' values,
and on the exact two-photon resonance q = 0 (|q| <= 1e-200) q is taken
as 1 and the results are overwritten with their limits.  Where no pole
merges, or no point sits on q = 0, the pass skips the selects and
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

def rho_m_bar(delta, params: SystemParams):
    """Doppler-averaged impurity response at two-photon detuning ``delta``.

    Prefactor b*alpha/2 on the averaged two-level line J(-P/Gamma_D),
    P = delta + Delta_c + i Gamma/2; the imaginary part is strictly
    positive (pure absorber).
    """
    return _responses(delta, params)[1]


def rho_c_bar(delta, params: SystemParams):
    """Doppler-averaged EIT response at two-photon detuning ``delta``.

    The denominator is linear in the Doppler shift, so the average is a
    single Gaussian pole integral at omega_0 = Omega_c^2/(4 q) - P with
    q = delta + i gamma_dec and P = delta + Delta_c + i Gamma/2.  On exact
    two-photon resonance with gamma_dec = 0 the response vanishes (or, if
    Omega_c = 0 as well, reduces to the two-level line).
    """
    return _responses(delta, params)[0]


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
    return _responses(delta, params)[2]


def doppler_responses(delta, params: SystemParams, derivatives=False):
    """(rho, kappa, tangents): rho = rho_c_bar + rho_m_bar and kappa_bar
    at ``delta``, equal to the public kernels bit for bit, and with
    ``derivatives`` their tangents, else None.

    ``tangents`` is the list of the three pairs (d rho, d kappa) with
    respect to b, Omega_c and gamma_dec in turn, each from the J arrays
    of the same pass:

    * rho_c and kappa scale with (1 - b) and rho_m with b, so the b pair
      costs no Faddeeva work at all;
    * the dressed pole zeta_0 = omega_0/Gamma_D moves with
      d omega_0/d Omega_c = Omega_c/(2q) and d omega_0/d gamma_dec =
      -i Omega_c^2/(4q^2), and J' = -2 zeta J - 2;
    * kappa's divided difference D moves with (D - J'(zeta_0))/(zeta_1 -
      zeta_0), or, where the poles merge, with the dD/dzeta_0 that
      :func:`~biphoton.faddeeva.gaussian_pole_difference` pairs with D.

    On exact two-photon resonance with gamma_dec = 0 (q = 0, never a
    sample of a zero-symmetric grid with an even number of points) every
    formula is evaluated at q = 1 and then overwritten: the kappa
    derivatives are zero there, and of the rho derivatives only d rho_m/d
    b is carried.  At Omega_c = 0, where rho is the two-level line there
    too, the rho derivatives keep their evaluated values.
    """
    rho, rho_m, kap, tangents = _responses(delta, params, derivatives)
    rho += rho_m        # rho_c + rho_m, in rho_c's array
    return rho, kap, tangents


def _responses(d, params: SystemParams, derivatives=False):
    """(rho_c, rho_m, kappa, tangents) at ``d`` in one pass: ``tangents``
    as :func:`doppler_responses` gives them with ``derivatives``, else
    None.

    Every array no later formula reads is freed as soon as it is spent:
    the derivative pass peaks while it builds its six tangents, and each
    array held through that adds its size to the working set of every
    derivative slice of a fit.
    """
    gd = params.gamma_doppler
    b, alpha = params.b, params.alpha
    omega_c, omega_p = params.omega_c, params.omega_p
    pump = omega_p != 0.0
    q = d + 1j * params.gamma_dec
    p_pole = d + params.delta_c + 0.5j
    resonant = None
    if params.gamma_dec <= _Q_FLOOR:    # else |q| >= gamma_dec
        at_zero = np.abs(q) <= _Q_FLOOR
        if at_zero.any():
            resonant = at_zero
            q[resonant] = 1.0
    omega0 = omega_c**2 / (4.0 * q) - p_pole
    zeta0 = omega0 / gd
    omega1 = -params.delta_p - 0.5j
    # one pointwise Faddeeva call: the dressed pole, the impurity line
    # and, with the pump on, J(omega_1/Gamma_D), which does not move
    j0, line, *at_pump = gaussian_pole_integral_along(
        zeta0, -p_pole / gd,
        points=np.array([omega1 / gd]) if pump else None)
    del p_pole
    j1 = complex(at_pump[0][0]) if pump else None

    # where omega_1 and the dressed pole are too close to difference J,
    # D and dD/dzeta_0 by series; where none merges, kappa and its slopes
    # skip the selects and masked writes, which would change no value
    merging = False
    if pump:
        merged = np.abs(omega1 - omega0) < _POLE_MERGE_RTOL * np.maximum(
            gd, np.maximum(abs(omega1), np.abs(omega0)))
        merging = merged.any()
        if merging:
            merged_diff, merged_slope = gaussian_pole_difference(
                zeta0[merged], omega1 / gd)

    if not pump or omega_c == 0.0:
        kap = np.zeros(q.shape, dtype=complex)
    else:
        sep = omega1 - omega0
        if merging:
            sep = np.where(merged, 1.0, sep)
        # the prefactor overflows past alpha Omega_p Omega_c ~ 1e308, and
        # gd**2 underflows to 0 below gd = 1e-154; the amplitude is then
        # not finite, which sample_spectral_amplitude reports, so no
        # warning
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            pref = -(1.0 - b) * alpha * omega_p * omega_c / (16.0 * q)
            kap = pref * (j1 - j0) / sep / gd
            if merging:
                kap[merged] = pref[merged] * merged_diff / gd**2
        del sep, pref
        if resonant is not None:
            # coupling factor is the constant Gamma/Omega_c on resonance
            pref0 = (1.0 - b) * alpha / 4.0 * omega_p / omega_c
            kap[resonant] = pref0 * j1 / gd
    del omega0

    rho_c = -((1.0 - b) * alpha / (8.0 * gd)) * j0
    # the numerator q kills the response on resonance; at Omega_c = 0 the
    # dressed pole is the impurity line's, the cancelled two-level limit
    if resonant is not None and omega_c != 0.0:
        rho_c[resonant] = 0.0
    rho_m = -(b * alpha / 2.0) / (4.0 * gd) * line
    if not derivatives:
        return rho_c, rho_m, kap, None

    keep = 1.0 - b
    inv_q = 1.0 / q
    del q
    j0_prime = -2.0 * zeta0 * j0 - 2.0
    c = alpha / (8.0 * gd)
    # d rho/d zeta_0
    rho_zeta = -keep * c * j0_prime
    # kappa = (1 - b) Omega_c kap_unit, and kap_zeta = (1 - b) Omega_c
    # d kap_unit/d zeta_0
    if not pump:
        kap_unit = kap_zeta = np.zeros_like(inv_q)
    else:
        sep = omega1 / gd - zeta0
        if merging:
            sep = np.where(merged, 1.0, sep)
        diff = (j1 - j0) / sep
        diff_zeta = (diff - j0_prime) / sep
        if merging:
            diff[merged] = merged_diff
            diff_zeta[merged] = merged_slope
        # np.divide, not /: a gd**2 that underflows to 0 gives inf, and
        # forward.predict reports the tangents as not finite
        k_unit = np.divide(-alpha * omega_p, 16.0 * gd**2) * inv_q
        kap_unit = k_unit * diff
        kap_zeta = (keep * omega_c) * k_unit * diff_zeta
        del sep, diff, diff_zeta, k_unit
    del zeta0, j0_prime
    # d zeta_0 = Omega_c/(2 q Gamma_D) per unit Omega_c and
    # -i Omega_c^2/(4 q^2 Gamma_D) per unit gamma_dec, and d(1/q) = -i/q^2
    zeta_c = (omega_c / (2.0 * gd)) * inv_q
    zeta_g = (-0.25j * omega_c**2 / gd) * inv_q * inv_q
    tangents = [
        # b
        (c * j0 - c * line, -omega_c * kap_unit),
        # Omega_c
        (rho_zeta * zeta_c, keep * kap_unit + kap_zeta * zeta_c),
        # gamma_dec
        (rho_zeta * zeta_g,
         (-1j * keep * omega_c) * kap_unit * inv_q + kap_zeta * zeta_g)]
    if resonant is not None:
        for _, d_kap in tangents:
            d_kap[resonant] = 0.0
        # as for rho_c: at Omega_c = 0, rho keeps the two-level line there
        if omega_c != 0.0:      # only d rho_m/d b moves
            tangents[0][0][resonant] = -c * line[resonant]
            for d_rho, _ in tangents[1:]:
                d_rho[resonant] = 0.0
    return rho_c, rho_m, kap, tangents
