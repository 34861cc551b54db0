"""Complex error (Faddeeva) function and the Gaussian pole integral.

The Faddeeva function w(z) = exp(-z^2) erfc(-iz) is evaluated in-repo:

* upper half-plane, |z| < 8: Weideman's rational approximation built from
  an N = 32 Fourier expansion (SIAM J. Numer. Anal. 31, 1497 (1994));
* upper half-plane, |z| >= 8: the Laplace continued fraction truncated at
  depth 13;
* lower half-plane: the reflection w(z) = 2 exp(-z^2) - w(-z).

The rational's polynomial is summed by Horner's rule in the operation
order of numpy's polyval, so values are bit-identical to it, but with the
running product taken out of place (``p = p * zz``): numpy's in-place
complex multiply rounds differently for 1-element arrays, and a scalar
w(z) must equal the same point evaluated inside an array.  A branch that
covers every point of an array is applied to it whole, without a gather
and scatter; every pole of the kernels lies in one half-plane.

The rational runs over ``_BLOCK`` = 2^14 points at a time, so that its
32-step Horner loop works in cache rather than streaming the whole array
through memory 32 times.  Blocking leaves every value bit-identical to a
one-pass evaluation.  Each output element is a fixed sequence of
elementwise operations on its own input element, and no temporary is
carried from one block to the next.  The multiplies, the one operation
whose rounding numpy may change when it runs in place, run out of place
in every block.  The one thing a block's size can change is numpy's
temporary elision, which reuses a temporary of 256 KiB or more in place:
a full block qualifies as the whole array does, a short last block may
not, and that only moves an add or a divide in or out of place, which
rounds the same either way.

Both upper-half-plane branches were checked against 30-digit arbitrary
precision references on a dense grid; the worst relative error of the
complex value is ~3e-13 (near z = 5.75), far inside the 1e-10 budget the
rest of the package assumes.  The test suite validates w against a
brute-force quadrature of its defining integral rather than against any
library.

Note that w itself grows like exp(|z|^2) deep in the lower half-plane, so
the reflection overflows for Im(z) << -27 at large |Re z|; the package only
ever evaluates it in the upper half-plane via :func:`gaussian_pole_integral`.

:func:`gaussian_pole_difference` gives the divided difference of J for two
nearly coincident poles, where subtracting two J values would cancel, and
:func:`gaussian_pole_difference_dz0` its derivative in the first pole.
"""

import math

import numpy as np

SQRT_PI = math.sqrt(math.pi)

_WEIDEMAN_N = 32
_CF_DEPTH = 13
_CF_RADIUS = 8.0
# points per pass of the rational's Horner loop: its working arrays are
# 256 KiB each and stay in cache, where a whole-array pass streams them
# through memory 32 times
_BLOCK = 2**14
# beyond this radius even z**2 risks overflow; one asymptotic term is
# already accurate to ~1/(2|z|^2)
_HUGE_RADIUS = 1e150
# terms of the two divided-difference series (midpoint Taylor inside
# _CF_RADIUS, asymptotic outside); both truncate below 1e-14 relative for
# pole separations up to 1e-3 max(1, |zeta|)
_TAYLOR_TERMS = 4
_ASYMPTOTIC_TERMS = 16


def _weideman_coefficients(n):
    """Polynomial coefficients (highest power first) of the rational fit."""
    m = 2 * n
    k = np.arange(-m + 1, m)
    big_l = math.sqrt(n / math.sqrt(2.0))
    theta = k * np.pi / m
    t = big_l * np.tan(theta / 2.0)
    f = np.concatenate(([0.0], np.exp(-t**2) * (big_l**2 + t**2)))
    a = np.real(np.fft.fft(np.fft.fftshift(f))) / (2 * m)
    return big_l, a[1:n + 1][::-1].copy()


_L, _COEFFS = _weideman_coefficients(_WEIDEMAN_N)


def _w_rational(z):
    """Weideman's rational at every point, ``_BLOCK`` points at a time."""
    if z.size <= _BLOCK:
        return _w_rational_block(z)
    flat = z.reshape(-1)
    out = np.empty(flat.shape, dtype=complex)
    for lo in range(0, flat.size, _BLOCK):
        out[lo:lo + _BLOCK] = _w_rational_block(flat[lo:lo + _BLOCK])
    return out.reshape(z.shape)


def _w_rational_block(z):
    iz = 1j * z
    den = _L - iz
    zz = (_L + iz) / den
    # Horner's rule, out of place (see the module docstring)
    p = np.full_like(zz, _COEFFS[0])
    for c in _COEFFS[1:]:
        p = p * zz
        p += c
    return 2.0 * p / den ** 2 + (1.0 / SQRT_PI) / den


def _w_continued_fraction(z):
    f = z.astype(complex).copy()
    for n in range(_CF_DEPTH, 0, -1):
        f = z - (n / 2.0) / f
    return (1j / SQRT_PI) / f


def split_apply(z, mask, f_in, f_out):
    """f_in(z) where ``mask`` holds and f_out(z) elsewhere, for a 1-d array.

    When one branch covers every point it is applied to ``z`` whole,
    without the gather and scatter.
    """
    if mask.all():
        return f_in(z)
    if not mask.any():
        return f_out(z)
    out = np.empty_like(z)
    out[mask] = f_in(z[mask])
    out[~mask] = f_out(z[~mask])
    return out


def _w_far(z):
    r2 = z.real**2 + z.imag**2
    return split_apply(z, r2 > _HUGE_RADIUS**2,
                       lambda zh: (1j / SQRT_PI) / zh, _w_continued_fraction)


def _w_upper(z):
    r2 = z.real**2 + z.imag**2
    return split_apply(z, ~(r2 >= _CF_RADIUS**2), _w_rational, _w_far)


def faddeeva_w(z):
    """Faddeeva function w(z) for scalar or array complex argument.

    Relative accuracy of the complex value is better than 1e-13 in the
    closed upper half-plane.  The lower half-plane uses the exact
    reflection formula and inherits the intrinsic exp(Im(z)^2 - Re(z)^2)
    growth of w there.
    """
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = split_apply(z, ~(z.imag < 0.0), _w_upper,
                      lambda zl: 2.0 * np.exp(-zl**2) - _w_upper(-zl))
    return out[0] if scalar else out


def gaussian_pole_integral(zeta):
    """Normalized Cauchy transform of the unit Gaussian.

    Evaluates J(zeta) = (1/sqrt(pi)) * Integral[ exp(-t^2) / (t - zeta) ]
    over the real line, for poles strictly off the real axis:

        J(zeta) =  i sqrt(pi) w(zeta)    for Im(zeta) > 0,
        J(zeta) = -i sqrt(pi) w(-zeta)   for Im(zeta) < 0.

    Every Doppler-averaged response in :mod:`biphoton.kernels` reduces to
    one or two evaluations of this function.
    """
    zeta = np.asarray(zeta, dtype=complex)
    scalar = zeta.ndim == 0
    zeta = np.atleast_1d(zeta)
    if np.any(zeta.imag == 0.0):
        raise ValueError("gaussian_pole_integral requires Im(zeta) != 0")
    out = split_apply(zeta, zeta.imag > 0.0,
                      lambda zu: 1j * SQRT_PI * _w_upper(zu),
                      lambda zl: -1j * SQRT_PI * _w_upper(-zl))
    return out[0] if scalar else out


def gaussian_pole_difference(zeta0, zeta1):
    """Divided difference (J(zeta1) - J(zeta0)) / (zeta1 - zeta0).

    For two poles in the same half-plane whose separation h = zeta1 - zeta0
    is small, |h| <= 1e-3 max(1, |zeta|), where the plain difference of two
    J values cancels.  With m = (zeta0 + zeta1)/2:

    * |m| < 8: the midpoint Taylor series
      sum_k J^(2k+1)(m) (h/2)^(2k) / (2k+1)!, whose derivatives follow from
      J' = -2 zeta J - 2 and J^(n+1) = -2 zeta J^(n) - 2n J^(n-1) (valid in
      both half-planes).  The forward recurrence amplifies rounding by
      about 2|m|^2 per order, so it serves only small |m|;
    * |m| >= 8: the asymptotic series J ~ -sum_k c_k zeta^-(2k+1),
      c_k = (2k-1)!!/2^k, differenced term by term:
      D[zeta^-n] = -a b h_(n-1)(a, b) with a = 1/zeta1, b = 1/zeta0 and h_p
      the complete homogeneous polynomial, h_p = (a+b) h_(p-1) - ab h_(p-2).

    Relative accuracy is about 2e-11 or better, limited by J itself.
    """
    return _near_poles(zeta0, zeta1, _difference_taylor,
                       _difference_asymptotic)


def gaussian_pole_difference_dz0(zeta0, zeta1):
    """Derivative in zeta0 of :func:`gaussian_pole_difference`.

    Away from merged poles it is (D - J'(zeta0)) / (zeta1 - zeta0), with D
    the divided difference; for nearly coincident poles both subtractions
    cancel, so each branch of :func:`gaussian_pole_difference` carries one
    more term.  With u = h/2:

    * |m| < 8: d/dzeta0 = (d/dm - d/du)/2 of the midpoint series, that is
      (1/2) sum_n J^(n+2)(m) u^n / n! times 1/(n+1) for even n and
      -1/(n+2) for odd n, summed to n = 7;
    * |m| >= 8: the confluent difference D[zeta0, zeta0, zeta1] of
      zeta^-n is a b^2 g_(n-1) with g_p = h_p(a, b, b) = b g_(p-1) + h_p(a, b),
      so the derivative is -sum_k c_k a b^2 g_(2k).

    Same domain and accuracy as :func:`gaussian_pole_difference`.
    """
    return _near_poles(zeta0, zeta1, _derivative_taylor,
                       _derivative_asymptotic)


def _near_poles(zeta0, zeta1, taylor, asymptotic):
    """``taylor`` where the pole midpoint is inside _CF_RADIUS, else
    ``asymptotic``, elementwise over the broadcast pole pairs."""
    z0, z1 = np.broadcast_arrays(np.asarray(zeta0, dtype=complex),
                                 np.asarray(zeta1, dtype=complex))
    scalar = z0.ndim == 0
    z0, z1 = np.atleast_1d(z0), np.atleast_1d(z1)
    out = np.empty(z0.shape, dtype=complex)
    near = np.abs(0.5 * (z0 + z1)) < _CF_RADIUS
    if np.any(near):
        out[near] = taylor(z0[near], z1[near])
    if np.any(~near):
        out[~near] = asymptotic(z0[~near], z1[~near])
    return out[0] if scalar else out


def _difference_taylor(z0, z1):
    m = 0.5 * (z0 + z1)
    quarter_h2 = (0.5 * (z1 - z0)) ** 2
    d_prev = gaussian_pole_integral(m)
    d = -2.0 * m * d_prev - 2.0
    out = d.copy()
    weight = np.ones_like(m)
    # n runs over the odd orders: step J^(n) to J^(n+2) per term
    for n in range(1, 2 * _TAYLOR_TERMS - 1, 2):
        d_prev, d = d, -2.0 * m * d - 2.0 * n * d_prev
        d_prev, d = d, -2.0 * m * d - 2.0 * (n + 1) * d_prev
        weight = weight * quarter_h2 / ((n + 1) * (n + 2))
        out += weight * d
    return out


def _difference_asymptotic(z0, z1):
    a, b = 1.0 / z1, 1.0 / z0
    ab, s = a * b, a + b
    h_prev, h = np.ones_like(a), s
    out = ab.copy()
    c = 1.0
    for k in range(1, _ASYMPTOTIC_TERMS):
        # (h_prev, h) advance from (h_(2k-2), h_(2k-1)) to (h_(2k), h_(2k+1))
        h_prev, h = h, s * h - ab * h_prev
        h_prev, h = h, s * h - ab * h_prev
        c *= (2 * k - 1) / 2.0
        out += c * ab * h_prev
    return out


def _derivative_taylor(z0, z1):
    m = 0.5 * (z0 + z1)
    u = 0.5 * (z1 - z0)
    d_prev = gaussian_pole_integral(m)
    d = -2.0 * m * d_prev - 2.0
    out = np.zeros_like(m)
    power = np.ones_like(m)                 # u^n / n!
    for n in range(2 * _TAYLOR_TERMS):
        # step (J^(n), J^(n+1)) to (J^(n+1), J^(n+2))
        d_prev, d = d, -2.0 * m * d - 2.0 * (n + 1) * d_prev
        out += power * d / ((n + 1) if n % 2 == 0 else -(n + 2))
        power = power * u / (n + 1)
    return 0.5 * out


def _derivative_asymptotic(z0, z1):
    a, b = 1.0 / z1, 1.0 / z0
    ab, s = a * b, a + b
    h_prev, h = np.ones_like(a), s
    g = np.ones_like(a)
    out = g.copy()
    c = 1.0
    for k in range(1, _ASYMPTOTIC_TERMS):
        # g advances from g_(2k-2) to g_(2k); h from h_(2k-1) to h_(2k+1)
        g = b * g + h
        h_prev, h = h, s * h - ab * h_prev
        g = b * g + h
        h_prev, h = h, s * h - ab * h_prev
        c *= (2 * k - 1) / 2.0
        out += c * g
    return -ab * b * out
