"""Complex error (Faddeeva) function and the Gaussian pole integral.

The Faddeeva function w(z) = exp(-z^2) erfc(-iz) is evaluated in-repo:

* upper half-plane, |z| < 8: Weideman's rational approximation built from
  an N = 32 Fourier expansion (SIAM J. Numer. Anal. 31, 1497 (1994));
* upper half-plane, |z| >= 8: the Laplace continued fraction truncated at
  depth 13;
* lower half-plane: the reflection w(z) = 2 exp(-z^2) - w(-z).

Every function here takes 1-d arrays.  The rational's polynomial is
summed by Horner's rule in the operation order of numpy's polyval, so
values are bit-identical to it, but with the running product taken out
of place (``p = p * zz``): numpy's in-place complex multiply rounds
differently for 1-element arrays, and w at a point must not depend on
the size of the array it sits in or its place there.  A branch that
covers every point of an array is applied to it whole, without a gather
and scatter; every pole of the kernels lies in one half-plane.

Both upper-half-plane branches were checked against 30-digit arbitrary
precision references on a dense grid; the worst relative error of the
complex value is ~3e-13 (near z = 5.75), far inside the 1e-10 budget the
rest of the package assumes.  The test suite validates w against a
brute-force quadrature of its defining integral rather than against any
library.

Note that w itself grows like exp(|z|^2) deep in the lower half-plane, so
the reflection overflows for Im(z) << -27 at large |Re z|; the package only
ever evaluates it in the upper half-plane via :func:`gaussian_pole_integral`.

:func:`gaussian_pole_difference` gives the divided difference D of J for
two nearly coincident poles, where subtracting two J values would cancel,
paired with its derivative dD/dzeta0 in the first pole.  Its midpoint
series and the Taylor carry below take J's derivatives from one forward
recurrence, J' = -2 zeta J - 2 and J^(k+1) = -2 zeta J^(k) - 2k J^(k-1)
(valid in both half-planes).

:func:`gaussian_pole_integral_along` evaluates J on dense samples of a
path, such as the kernels' poles over a detuning grid, where neighbours
move zeta by only 1e-5 to 1e-3.  It splits the samples into blocks of
``_ALONG_BLOCK`` = 32 and evaluates J pointwise at each block's middle
point zeta_a only.  J is carried to the rest of the block by its Taylor
series in u = zeta - zeta_a, summed to ``_ALONG_TERMS`` = 6 terms, with
derivatives from that recurrence.  With r = max |u| over the block:

* truncation.  |J^(n)(zeta)|/n! <= |J(zeta)|/Gamma(n/2 + 1), with equality
  as zeta -> 0, where w(z) = sum (iz)^n/Gamma(n/2 + 1); the bound was
  checked against 80-digit values of J^(n), n <= 20, on a grid of
  |Re zeta| <= 10, 1e-4 <= |Im zeta| <= 8 (J(-zeta) = -J(zeta) and
  J(conj zeta) = conj J(zeta) cover the rest of the plane).  For
  r <= ``_ALONG_RADIUS`` = 0.004 the omitted terms are below
  r^6/6 = 7e-16 relative;
* rounding.  The forward recurrence grows an error in J^(k) like the
  Hermite polynomial H_k(zeta_a), about 2|zeta_a|^2/k per order relative
  to J^(k) itself, so the error of the k-th term, relative to J, is about
  eps (2|zeta_a|^2 r)^k/k!.  Blocks with 2|zeta_a|^2 r <=
  ``_ALONG_AMPLIFICATION`` = 0.5 keep it within 2 eps;
* approximation.  The pointwise J carries the error e(zeta) of the
  rational or continued fraction, up to 3e-13 relative; the carried J
  carries e(zeta_a) exp(-2 zeta_a u - u^2) instead, the homogeneous
  solution of J' = -2 zeta J - 2.  The two differ by about
  r |2 zeta_a e(zeta_a) + e'(zeta_a)|, measured at up to 4.6e-12 r |J|
  just inside |zeta| = 8, where the rational's error varies fastest
  (blocks on 0 <= Re zeta <= 12, 1e-3 <= -Im zeta <= 3).  Both rules
  above hold r below 0.004 and below 0.5/(2|zeta|^2), so that difference
  stays below 2e-14 (1.8e-14 measured at r = 0.0039).

A block is evaluated pointwise instead when its r exceeds either bound,
when its disk |zeta - zeta_a| <= r reaches the |zeta| = 8 switch between
approximants or the real axis (where J jumps by the Gaussian residue),
or when its points all coincide (r = 0).  So are the last points of an
array whose length is not a multiple of 32.  Arrays shorter than
``ALONG_MIN_POINTS`` = 2^14 points are evaluated pointwise throughout and
equal pointwise J bit for bit; longer ones agree with it within 5e-14
relative (1.7e-14 measured over the detuning grids of a sweep), and
equal it bit for bit at the anchors.  Every value depends only on its
own block, so an array sliced at a multiple of 32 gives the same bits as
the whole, as long as each slice still takes the Taylor path: the
spectral amplitude walks its grids in slices of ``ALONG_MIN_POINTS``
points for that reason.

The blocks to carry are chosen from zeta alone, so one call takes every
path of a slice (the kernels' dressed pole and impurity line) and loose
points besides (their pump pole): the anchors of all paths, the points
of every block that is not carried and the loose points go through a
single pointwise call, whose cost is mostly fixed per call at these
sizes.  Pointwise J does not depend on the size of the array, or the
place in it, that a point is evaluated at (the out-of-place Horner above
is there for that), so each path gets the same bits as in a call of its
own.
"""

import math

import numpy as np

SQRT_PI = math.sqrt(math.pi)

_WEIDEMAN_N = 32
_CF_DEPTH = 13
_CF_RADIUS = 8.0
# the fewest points gaussian_pole_integral_along carries by Taylor series;
# shorter arrays are evaluated pointwise.  The amplitude's slice length
# and the smallest detuning grid (biphoton.wavepacket), so that every
# slice of every grid takes the Taylor path
ALONG_MIN_POINTS = 2**14
# beyond this radius even z**2 risks overflow; one asymptotic term is
# already accurate to ~1/(2|z|^2)
_HUGE_RADIUS = 1e150
# terms of the two divided-difference series (midpoint Taylor inside
# _CF_RADIUS, asymptotic outside); both truncate below 1e-14 relative for
# pole separations up to 1e-3 max(1, |zeta|)
_TAYLOR_TERMS = 4
_ASYMPTOTIC_TERMS = 16
# gaussian_pole_integral_along: points per block (a power of two dividing
# ALONG_MIN_POINTS), Taylor terms, and the largest block spread r and
# recurrence amplification 2|zeta_a|^2 r carried (see the module docstring)
_ALONG_BLOCK = 32
_ALONG_TERMS = 6
_ALONG_RADIUS = 0.004
_ALONG_AMPLIFICATION = 0.5


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
    with np.errstate(over="ignore"):    # |z| past 1e154 squares to inf
        r2 = z.real**2 + z.imag**2
    return split_apply(z, r2 > _HUGE_RADIUS**2,
                       lambda zh: (1j / SQRT_PI) / zh, _w_continued_fraction)


def _w_upper(z):
    # an r2 that overflows to inf is past both radii, as it should be
    with np.errstate(over="ignore"):
        r2 = z.real**2 + z.imag**2
    return split_apply(z, ~(r2 >= _CF_RADIUS**2), _w_rational, _w_far)


def faddeeva_w(z):
    """Faddeeva function w(z) at each point of a 1-d array ``z``.

    Relative accuracy of the complex value is about 3e-13 or better in
    the closed upper half-plane (worst near z = 5.75).  The lower
    half-plane uses the exact reflection formula and inherits the
    intrinsic exp(Im(z)^2 - Re(z)^2) growth of w there.
    """
    z = np.asarray(z, dtype=complex)
    return split_apply(z, ~(z.imag < 0.0), _w_upper,
                       lambda zl: 2.0 * np.exp(-zl**2) - _w_upper(-zl))


def gaussian_pole_integral(zeta):
    """Normalized Cauchy transform of the unit Gaussian.

    Evaluates J(zeta) = (1/sqrt(pi)) * Integral[ exp(-t^2) / (t - zeta) ]
    over the real line, for poles strictly off the real axis:

        J(zeta) =  i sqrt(pi) w(zeta)    for Im(zeta) > 0,
        J(zeta) = -i sqrt(pi) w(-zeta)   for Im(zeta) < 0.

    Every Doppler-averaged response in :mod:`biphoton.kernels` reduces to
    one or two evaluations of this function, on 1-d complex arrays.  J at
    a point does not depend on the size of the array it sits in or its
    place there.
    """
    if np.any(zeta.imag == 0.0):
        raise ValueError("gaussian_pole_integral requires Im(zeta) != 0")
    return split_apply(zeta, zeta.imag > 0.0,
                       lambda zu: 1j * SQRT_PI * _w_upper(zu),
                       lambda zl: -1j * SQRT_PI * _w_upper(-zl))


def gaussian_pole_integral_along(*paths, points=None):
    """:func:`gaussian_pole_integral` on dense samples of each of
    ``paths``, and at ``points``, from one pointwise call.

    Each path is a 1-d array of poles off the real axis in path order.  J
    is evaluated pointwise at the middle point of each block of 32
    samples and carried to the rest of the block by a Taylor series, where
    the block is narrow enough (see the module docstring for the rules
    and the error bound).  A path shorter than ``ALONG_MIN_POINTS``
    points is evaluated pointwise and equals :func:`gaussian_pole_integral`
    bit for bit, as does the 1-d array ``points``; a longer path agrees
    with it within 5e-14 relative.  Every anchor, every sample of a block
    that is not carried and every one of ``points`` go through a single
    :func:`gaussian_pole_integral` call.

    Returns the list of J on each path in turn, then J at ``points`` if
    given.
    """
    plans = [_plan(zeta) for zeta in paths]
    if points is not None:
        plans.append((points, _unchanged))
    j = gaussian_pole_integral(np.concatenate([at for at, _ in plans]))
    out, lo = [], 0
    for at, finish in plans:
        out.append(finish(j[lo:lo + at.size]))
        lo += at.size
    return out


def _unchanged(j):
    """The ``finish`` of an array that is evaluated pointwise throughout."""
    return j


def _plan(zeta):
    """(at, finish) for one path: the samples where J is evaluated
    pointwise, and the function that takes J there to J on ``zeta``."""
    if zeta.size < ALONG_MIN_POINTS:
        return zeta, _unchanged
    n_full = zeta.size - zeta.size % _ALONG_BLOCK
    out = np.empty_like(zeta)
    blocks = zeta[:n_full].reshape(-1, _ALONG_BLOCK)
    out_blocks = out[:n_full].reshape(-1, _ALONG_BLOCK)
    anchors = blocks[:, _ALONG_BLOCK // 2]
    u = blocks - anchors[:, None]
    # |u| in the real parts of ``out``, every entry of which J overwrites
    carried = _carried(anchors, np.abs(u, out=out_blocks.real).max(axis=1))
    pointwise = blocks[~carried].ravel()
    tail = zeta[n_full:]

    def finish(j):
        j_anchors, j_pointwise, j_tail = np.split(
            j, [anchors.size, anchors.size + pointwise.size])
        if not carried.all():
            out_blocks[~carried] = j_pointwise.reshape(-1, _ALONG_BLOCK)
        if carried.any():
            _carry(anchors, j_anchors, u, carried, out_blocks)
        out[n_full:] = j_tail
        return out

    return np.concatenate([anchors, pointwise, tail]), finish


def _carried(anchors, spread):
    """Which blocks the Taylor series carries, from their ``anchors`` and
    ``spread`` r = max |zeta - zeta_a| alone (the rules of the module
    docstring)."""
    modulus = np.abs(anchors)
    # r <= A/(2|zeta_a|^2), written so that it cannot overflow; below
    # |zeta_a| = 1 the radius rule is the stricter one
    floor = np.maximum(modulus, 1.0)
    limit = np.minimum(_ALONG_RADIUS,
                       (0.5 * _ALONG_AMPLIFICATION / floor) / floor)
    return ((spread > 0.0) & (spread <= limit)
            & (np.abs(modulus - _CF_RADIUS) > 2.0 * spread)
            & (np.abs(anchors.imag) > spread))


def _carry(anchors, j_anchors, u, carried, out):
    """J on the ``carried`` blocks (rows) into ``out``, by the Taylor
    series in the offsets ``u`` about ``anchors``, where J is
    ``j_anchors``."""
    if not carried.all():
        anchors, j_anchors, u = (
            anchors[carried], j_anchors[carried], u[carried])
    # J^(k)(zeta_a)/k! for k = 0 .. _ALONG_TERMS - 1
    coeffs = [d / math.factorial(k) if k > 1 else d for k, d in
              enumerate(_derivatives(anchors, j_anchors, _ALONG_TERMS - 1))]
    # Horner's rule in place: every array holds 32 or more points, where
    # numpy's in-place and out-of-place complex multiplies round alike
    p = out if carried.all() else np.empty_like(u)
    p[:] = coeffs[-1][:, None]
    for c in coeffs[-2::-1]:
        p *= u
        p += c[:, None]
    if p is not out:
        out[carried] = p


def _derivatives(zeta, j, n):
    """[J, J', ..., J^(n)] at ``zeta`` from ``j`` = J(zeta), by the forward
    recurrence of the module docstring.  It amplifies rounding by about
    2|zeta|^2/k per order, so it serves only small |zeta| or few orders."""
    out = [j, -2.0 * zeta * j - 2.0]
    for k in range(1, n):
        out.append(-2.0 * zeta * out[k] - 2.0 * k * out[k - 1])
    return out


def gaussian_pole_difference(zeta0, zeta1):
    """(D, dD/dzeta0) for the divided difference
    D = (J(zeta1) - J(zeta0)) / (zeta1 - zeta0).

    For two poles in the same half-plane whose separation h = zeta1 - zeta0
    is small, |h| <= 1e-3 max(1, |zeta|), where the plain difference of two
    J values cancels, and so does the closed-form derivative
    (D - J'(zeta0))/h.  With m = (zeta0 + zeta1)/2 and u = h/2:

    * |m| < 8: the midpoint Taylor series, from J^(n)(m) by the forward
      recurrence to n = 9: D = sum_k J^(2k+1)(m) u^(2k) / (2k+1)!, and
      dD/dzeta0 = (d/dm - d/du) D / 2, that is (1/2) sum_n J^(n+2)(m)
      u^n / n! times 1/(n+1) for even n and -1/(n+2) for odd n;
    * |m| >= 8: the asymptotic series J ~ -sum_k c_k zeta^-(2k+1),
      c_k = (2k-1)!!/2^k, differenced term by term:
      D[zeta^-n] = -a b h_(n-1)(a, b) with a = 1/zeta1, b = 1/zeta0 and h_p
      the complete homogeneous polynomial, h_p = (a+b) h_(p-1) - ab h_(p-2);
      the confluent difference D[zeta0, zeta0, zeta1] of zeta^-n is
      a b^2 g_(n-1) with g_p = h_p(a, b, b) = b g_(p-1) + h_p(a, b), so
      dD/dzeta0 = -sum_k c_k a b^2 g_(2k).

    Elementwise over the pole pairs of the 1-d array ``zeta0`` and
    ``zeta1``, an array of the same size or one pole.  Relative accuracy
    is about 2e-11 or better for D and 1e-8 for its derivative, limited
    by J itself.
    """
    z0, z1 = np.broadcast_arrays(zeta0, zeta1)
    diff = np.empty(z0.shape, dtype=complex)
    slope = np.empty_like(diff)
    near = np.abs(0.5 * (z0 + z1)) < _CF_RADIUS
    for where, series in ((near, _difference_taylor),
                          (~near, _difference_asymptotic)):
        if where.any():
            diff[where], slope[where] = series(z0[where], z1[where])
    return diff, slope


def _difference_taylor(z0, z1):
    m = 0.5 * (z0 + z1)
    u = 0.5 * (z1 - z0)
    d = _derivatives(m, gaussian_pole_integral(m), 2 * _TAYLOR_TERMS + 1)
    diff = d[1].copy()
    weight = np.ones_like(m)
    # n runs over the odd orders
    for n in range(1, 2 * _TAYLOR_TERMS - 1, 2):
        weight = weight * u**2 / ((n + 1) * (n + 2))
        diff += weight * d[n + 2]
    slope = np.zeros_like(m)
    power = np.ones_like(m)                 # u^n / n!
    for n in range(2 * _TAYLOR_TERMS):
        slope += power * d[n + 2] / ((n + 1) if n % 2 == 0 else -(n + 2))
        power = power * u / (n + 1)
    return diff, 0.5 * slope


def _difference_asymptotic(z0, z1):
    a, b = 1.0 / z1, 1.0 / z0
    ab, s = a * b, a + b
    h_prev, h = np.ones_like(a), s
    g = np.ones_like(a)
    diff, slope = ab.copy(), g.copy()
    c = 1.0
    for k in range(1, _ASYMPTOTIC_TERMS):
        # g advances from g_(2k-2) to g_(2k); (h_prev, h) from
        # (h_(2k-2), h_(2k-1)) to (h_(2k), h_(2k+1))
        g = b * g + h
        h_prev, h = h, s * h - ab * h_prev
        g = b * g + h
        h_prev, h = h, s * h - ab * h_prev
        c *= (2 * k - 1) / 2.0
        diff += c * ab * h_prev
        slope += c * g
    return diff, -ab * b * slope
