"""The in-repo Faddeeva evaluation against its defining integral.

The reference is a dense trapezoid quadrature of
(1/sqrt(pi)) Integral[exp(-t^2)/(t - z)]; for an analytic integrand the
uniform trapezoid rule converges like exp(-2 pi d/h) where d is the pole
distance from the real axis, so with h ~ 2e-5 it is exact to rounding for
Im(z) >= 1e-4.  No external special-function library is involved.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import biphoton.faddeeva as F
from biphoton.faddeeva import (_ALONG_AMPLIFICATION, _ALONG_BLOCK,
                               _ALONG_RADIUS, _ALONG_TERMS, _CF_RADIUS,
                               _COEFFS, _L, ALONG_MIN_POINTS, SQRT_PI,
                               _derivatives, _w_continued_fraction,
                               _w_rational, faddeeva_w,
                               gaussian_pole_difference,
                               gaussian_pole_integral,
                               gaussian_pole_integral_along)

from conftest import at_point


def j_oracle(z, half=30.0, n=3_000_001):
    t = np.linspace(-half, half, n)
    return np.trapezoid(np.exp(-t**2) / (t - z), t) / SQRT_PI


def difference_oracle(z0, z1, half=30.0, n=3_000_001):
    # the divided difference of J is the Gaussian average of
    # 1/((t - z0)(t - z1)), so the oracle needs no subtraction
    t = np.linspace(-half, half, n)
    return np.trapezoid(np.exp(-t**2) / ((t - z0) * (t - z1)), t) / SQRT_PI


def w_oracle(z):
    # J(z) = i sqrt(pi) w(z) in the upper half-plane
    return j_oracle(z) / (1j * SQRT_PI)


REFERENCE_POINTS = [
    0.3 + 1e-4j, 1.0 + 0.01j, 2.5 + 0.5j, 5.75 + 1e-3j, 8.0 + 2.0j,
    0.0 + 1e-3j, 0.0 + 4.0j, -3.2 + 0.2j, -7.5 + 1e-4j, 9.9 + 0.05j,
    12.0 + 1.0j, 25.0 + 1e-3j, 60.0 + 10.0j,
]


@pytest.mark.parametrize("z", REFERENCE_POINTS)
def test_faddeeva_matches_quadrature_oracle(z):
    assert abs(at_point(faddeeva_w, z) - w_oracle(z)) / abs(w_oracle(z)) \
        < 1e-10


def test_branch_crossover_is_seamless():
    # same accuracy immediately on both sides of the |z| = 10 switchover
    for z in (9.999 + 0.3j, 10.001 + 0.3j, 0.1 + 9.999j, 0.1 + 10.001j):
        assert abs(at_point(faddeeva_w, z) - w_oracle(z)) \
            / abs(w_oracle(z)) < 1e-11


def test_known_values():
    # w(0) = 1; w(i y) = exp(y^2) erfc(y) is real
    assert at_point(faddeeva_w, 0.0) == pytest.approx(1.0)
    wi = at_point(faddeeva_w, 1j)
    assert wi.imag == pytest.approx(0.0, abs=1e-15)
    assert wi.real == pytest.approx(0.42758357615580700442, rel=1e-12)


def test_lower_half_plane_reflection():
    z = 1.3 - 0.7j
    expected = 2.0 * np.exp(-z**2) - at_point(faddeeva_w, -z)
    assert at_point(faddeeva_w, z) == pytest.approx(expected, rel=1e-12)


def test_vectorized_matches_scalar():
    # a point alone, in a one-element array, gets the bits it gets inside
    # a longer array, in every branch
    zs = np.array([0.5 + 0.5j, -2.0 + 1e-3j, 15.0 + 2.0j, 1.0 - 0.2j])
    vec = faddeeva_w(zs)
    for i in range(zs.size):
        assert faddeeva_w(zs[i:i + 1])[0] == vec[i]


def rational_single_pass(z):
    # Weideman's rational over the whole array at once, through polyval
    iz = 1j * z
    p = np.polyval(_COEFFS, (_L + iz) / (_L - iz))
    return 2.0 * p / (_L - iz) ** 2 + (1.0 / SQRT_PI) / (_L - iz)


def upper_half_plane_points(size, seed, radius=8.0):
    rng = np.random.default_rng(seed)
    return (rng.uniform(-radius, radius, size)
            + 1j * rng.uniform(0.0, radius, size))


@pytest.mark.parametrize("size", [1, 2, 7, 65536])
def test_horner_is_bit_identical_to_polyval(size):
    z = upper_half_plane_points(size, seed=size)
    assert np.array_equal(_w_rational(z), rational_single_pass(z))


# the sizes around one amplitude slice, which hands the rational all of
# its points or a gathered part of them
@pytest.mark.parametrize("size", [1, 2, ALONG_MIN_POINTS - 1,
                                  ALONG_MIN_POINTS, ALONG_MIN_POINTS + 1,
                                  3 * ALONG_MIN_POINTS + 7])
def test_blocked_rational_is_bit_identical_to_one_pass(size):
    z = upper_half_plane_points(size, seed=size + 1)
    assert np.array_equal(_w_rational(z), rational_single_pass(z))


def test_blocked_rational_keeps_the_shape_of_its_input():
    z = upper_half_plane_points(2 * ALONG_MIN_POINTS + 6,
                                seed=3).reshape(2, -1)
    got = _w_rational(z)
    assert got.shape == z.shape
    assert np.array_equal(got.ravel(), rational_single_pass(z.ravel()))


def test_blocked_rational_in_a_gathered_mixed_branch_array():
    # about two thirds of the points lie past the continued-fraction radius,
    # so the rational runs on a gathered copy of the rest
    z = upper_half_plane_points(3 * ALONG_MIN_POINTS + 7, seed=5,
                                radius=12.0)
    far = np.abs(z) >= _CF_RADIUS
    assert 0 < np.count_nonzero(far)
    assert np.count_nonzero(~far) > ALONG_MIN_POINTS
    want = np.empty_like(z)
    want[~far] = rational_single_pass(z[~far])
    want[far] = _w_continued_fraction(z[far])
    assert np.array_equal(faddeeva_w(z), want)


@settings(max_examples=60, deadline=None)
@given(x=st.floats(-30, 30), y=st.floats(1e-3, 30))
def test_conjugation_symmetry(x, y):
    # w(-conj(z)) = conj(w(z)) maps the UHP to itself
    z = complex(x, y)
    assert at_point(faddeeva_w, -np.conj(z)) == pytest.approx(
        np.conj(at_point(faddeeva_w, z)), rel=1e-12)


def test_asymptotic_tail():
    z = 3e7 + 4e7j
    assert at_point(faddeeva_w, z) == pytest.approx(1j / (SQRT_PI * z),
                                                    rel=1e-10)


class TestGaussianPoleIntegral:
    @pytest.mark.parametrize("zeta", [0.4 + 0.2j, -1.1 + 3.0j, 6.0 + 1e-3j])
    def test_upper_half_plane(self, zeta):
        assert at_point(gaussian_pole_integral, zeta) == pytest.approx(
            j_oracle(zeta), rel=1e-10)

    @pytest.mark.parametrize("zeta", [0.4 - 0.2j, -1.1 - 3.0j, 6.0 - 1e-3j])
    def test_lower_half_plane(self, zeta):
        assert at_point(gaussian_pole_integral, zeta) == pytest.approx(
            j_oracle(zeta), rel=1e-10)

    def test_half_plane_jump_is_the_gaussian_residue(self):
        # J jumps by 2 i sqrt(pi) exp(-x^2) across the real axis
        x = 0.8
        up, dn = gaussian_pole_integral(np.array([x + 1e-9j, x - 1e-9j]))
        assert (up - dn) / (2j * SQRT_PI) == pytest.approx(np.exp(-x**2),
                                                           rel=1e-6)

    def test_real_axis_rejected(self):
        with pytest.raises(ValueError):
            gaussian_pole_integral(np.array([1.0 + 0.0j]))


def difference_at(z0, z1):
    """``gaussian_pole_difference``'s pair (D, dD/dzeta0) at one pair of
    poles."""
    diff, slope = gaussian_pole_difference(np.array([z0]), z1)
    return diff[0], slope[0]


# midpoints on both sides of the |m| = 8 switch between the Taylor and the
# asymptotic series, in the lower half-plane where the kernels' poles lie
@pytest.mark.parametrize("m", [0.3 - 0.2j, -5.864 - 0.00926j, 7.9 - 1.0j,
                               8.1 - 0.5j, -40.0 - 0.01j])
@pytest.mark.parametrize("rel_sep", [1e-3, 1e-7, 0.0])
def test_pole_difference_matches_quadrature_oracle(m, rel_sep):
    h = rel_sep * max(1.0, abs(m)) * np.exp(0.4j)
    z0, z1 = m - h / 2, m + h / 2
    got, _ = difference_at(z0, z1)
    want = difference_oracle(z0, z1)
    assert abs(got - want) / abs(want) < 1e-10


def test_pole_difference_is_the_plain_difference_when_apart():
    z0, z1 = 2.0 - 0.3j, 2.001 - 0.3j
    j0, j1 = gaussian_pole_integral(np.array([z0, z1]))
    plain = (j1 - j0) / (z1 - z0)
    diff, _ = difference_at(z0, z1)
    assert diff == pytest.approx(plain, rel=1e-9)
    vec, _ = gaussian_pole_difference(np.array([z0, 9.0 - 1j]), z1)
    assert vec[0] == diff


def difference_slope(z0, z1):
    """The d/dzeta0 half of ``gaussian_pole_difference``'s pair."""
    return difference_at(z0, z1)[1]


class TestPoleDifferenceDerivative:
    """d/dzeta0 of the divided difference, in the domain of
    ``gaussian_pole_difference`` and beyond it."""

    # midpoints in both branches (|m| < 8 Taylor, |m| >= 8 asymptotic)
    @pytest.mark.parametrize("m", [0.3 - 0.2j, -5.864 - 0.00926j,
                                   7.9 - 1.0j, 8.1 - 0.5j, -40.0 - 0.01j])
    @pytest.mark.parametrize("rel_sep", [1e-3, 1e-7, 0.0])
    def test_matches_central_differences(self, m, rel_sep):
        h = rel_sep * max(1.0, abs(m)) * np.exp(0.4j)
        z0, z1 = m - h / 2, m + h / 2
        step = 1e-5 * max(1.0, abs(m))
        want = (difference_at(z0 + step, z1)[0]
                - difference_at(z0 - step, z1)[0]) / (2 * step)
        got = difference_slope(z0, z1)
        assert abs(got - want) / abs(got) < 1e-8

    # well-separated poles, where (D - J'(zeta0))/(zeta1 - zeta0) does not
    # cancel; both series still converge there
    @pytest.mark.parametrize("m", [0.3 - 0.2j, 3.0 + 2.0j, -5.0 - 0.5j,
                                   9.0 - 0.5j, -20.0 - 3.0j, 40.0 + 1.0j])
    def test_is_the_closed_form_when_apart(self, m):
        h = 0.1 * np.exp(0.3j)
        z0, z1 = m - h / 2, m + h / 2
        j0, j1 = gaussian_pole_integral(np.array([z0, z1]))
        closed = ((j1 - j0) / (z1 - z0) - (-2.0 * z0 * j0 - 2.0)) / (z1 - z0)
        got = difference_slope(z0, z1)
        assert abs(got - closed) / abs(closed) < 1e-8

    def test_vectorized_matches_scalar(self):
        # a pole pair alone, in one-element arrays, gets the bits it gets
        # inside longer arrays, in both series
        z0 = np.array([2.0005 - 0.3j, 9.0 - 1.0j + 1e-3])
        z1 = np.array([2.0 - 0.3j, 9.0 - 1.0j])
        vec = gaussian_pole_difference(z0, z1)
        for i in range(z0.size):
            alone = gaussian_pole_difference(z0[i:i + 1], z1[i:i + 1])
            assert alone[0][0] == vec[0][i]
            assert alone[1][0] == vec[1][i]


# the bound gaussian_pole_integral_along keeps against pointwise J
ALONG_RTOL = 5e-14


def relative_deviation(got, want):
    return float(np.max(np.abs(got - want) / np.abs(want)))


class TestGaussianPoleIntegralAlong:
    """J on dense samples of a path, carried from one pointwise anchor per
    block of 32 by a Taylor series, against pointwise J."""

    @staticmethod
    def counting(monkeypatch):
        """Count the points the path evaluates pointwise."""
        counted = []
        real = F.gaussian_pole_integral

        def counted_integral(zeta):
            counted.append(np.size(zeta))
            return real(zeta)

        monkeypatch.setattr(F, "gaussian_pole_integral", counted_integral)
        return counted

    # lines on both sides of the real axis, inside and outside |zeta| = 8,
    # at the 1e-5 .. 2e-4 spacing of the kernels' grids
    @pytest.mark.parametrize("start, stop, n", [
        (-3.0 - 0.01j, 3.0 - 0.01j, 2**16),
        (-2.0 + 0.3j, 2.5 + 0.1j, 2**15),
        (5.0 - 0.02j, 7.9 - 0.02j, 2**14),
        (8.5 - 0.02j, 12.0 - 0.02j, 2**16),
        (-12.0 - 1.0j, -9.0 - 1.0j, 2**17),
    ])
    def test_within_the_bound_of_pointwise(self, monkeypatch, start, stop, n):
        zeta = np.linspace(start, stop, n)
        want = gaussian_pole_integral(zeta)
        counted = self.counting(monkeypatch)
        got, = gaussian_pole_integral_along(zeta)
        assert relative_deviation(got, want) <= ALONG_RTOL
        # nearly every block is carried from its anchor alone
        assert sum(counted) <= 2 * n // _ALONG_BLOCK

    def test_anchors_are_pointwise_bit_for_bit(self):
        zeta = np.linspace(-3.0 - 0.01j, 3.0 - 0.01j, 2**15)
        got, = gaussian_pole_integral_along(zeta)
        mid = slice(_ALONG_BLOCK // 2, None, _ALONG_BLOCK)
        assert np.array_equal(got[mid], gaussian_pole_integral(zeta[mid]))

    def test_slices_give_the_same_bits_as_the_whole(self):
        zeta = np.linspace(-5.0 - 0.05j, 9.0 - 0.05j, 4 * ALONG_MIN_POINTS)
        whole, = gaussian_pole_integral_along(zeta)
        for lo in range(0, zeta.size, ALONG_MIN_POINTS):
            part = slice(lo, lo + ALONG_MIN_POINTS)
            assert np.array_equal(gaussian_pole_integral_along(zeta[part])[0],
                                  whole[part])

    @pytest.mark.parametrize("n", [ALONG_MIN_POINTS + 1,
                                   ALONG_MIN_POINTS + _ALONG_BLOCK - 1,
                                   3 * ALONG_MIN_POINTS + 45])
    def test_lengths_that_are_not_a_multiple_of_the_block(self, n):
        zeta = np.linspace(-4.0 - 0.02j, 4.0 - 0.02j, n)
        got, = gaussian_pole_integral_along(zeta)
        assert relative_deviation(got, gaussian_pole_integral(zeta)) \
            <= ALONG_RTOL
        full = n - n % _ALONG_BLOCK
        # the remainder is pointwise; the blocks before it do not see it
        assert np.array_equal(got[full:], gaussian_pole_integral(zeta[full:]))
        assert np.array_equal(got[:full],
                              gaussian_pole_integral_along(zeta[:full])[0])

    def test_short_arrays_equal_their_scalar_values(self):
        # a short path is pointwise, and each point of it gets the bits
        # it gets alone, in a one-element path
        zeta = np.linspace(-3.0 - 0.01j, 3.0 - 0.01j, ALONG_MIN_POINTS - 1)
        got, = gaussian_pole_integral_along(zeta)
        assert np.array_equal(got, gaussian_pole_integral(zeta))
        for i in range(0, zeta.size, 997):
            assert got[i] == gaussian_pole_integral_along(zeta[i:i + 1])[0][0]

    def test_block_straddling_the_switch_is_pointwise(self):
        # |zeta| crosses 8 once, inside a block; every block is narrow
        # enough to carry
        crossing = 250 * _ALONG_BLOCK + 10
        step = 1.2e-4
        zeta = (np.sqrt(_CF_RADIUS**2 - 0.25) - 0.5j
                + (np.arange(ALONG_MIN_POINTS) - crossing + 0.5) * step)
        got, = gaussian_pole_integral_along(zeta)
        want = gaussian_pole_integral(zeta)
        blocks = np.abs(zeta).reshape(-1, _ALONG_BLOCK)
        straddles = (blocks.min(axis=1) < _CF_RADIUS) & \
            (blocks.max(axis=1) >= _CF_RADIUS)
        assert np.count_nonzero(straddles) == 1
        rows = got.reshape(-1, _ALONG_BLOCK), want.reshape(-1, _ALONG_BLOCK)
        assert np.array_equal(rows[0][straddles], rows[1][straddles])
        # the blocks around it are carried, not pointwise
        assert not np.array_equal(rows[0][~straddles], rows[1][~straddles])
        assert relative_deviation(got, want) <= ALONG_RTOL

    def test_block_reaching_the_real_axis_is_pointwise(self):
        # J jumps across the real axis; the path crosses it between samples
        zeta = np.linspace(1.0 - 0.2j, 1.0 + 0.2j + 1e-7, ALONG_MIN_POINTS)
        assert not np.any(zeta.imag == 0.0)
        got, = gaussian_pole_integral_along(zeta)
        assert relative_deviation(got, gaussian_pole_integral(zeta)) \
            <= ALONG_RTOL
        crossing = np.flatnonzero(np.diff(np.sign(zeta.imag)))[0]
        block = slice(crossing - crossing % _ALONG_BLOCK,
                      crossing - crossing % _ALONG_BLOCK + _ALONG_BLOCK)
        assert np.array_equal(got[block], gaussian_pole_integral(zeta[block]))

    def test_real_axis_rejected(self):
        zeta = np.linspace(-3.0 - 0.01j, 3.0 - 0.01j, ALONG_MIN_POINTS)
        zeta[1000] = 0.5
        with pytest.raises(ValueError):
            gaussian_pole_integral_along(zeta)


# The single-path gaussian_pole_integral_along and its _carry as they were
# before one pointwise call served every path of a slice, kept verbatim
# (renamed) as the reference that the batched call must equal bit for bit.
def along_reference(zeta):
    """:func:`gaussian_pole_integral` on dense samples of a path.

    ``zeta`` is a 1-d array of poles off the real axis in path order.  J
    is evaluated pointwise at the middle point of each block of 32
    samples and carried to the rest of the block by a Taylor series, where
    the block is narrow enough (see the module docstring for the rules
    and the error bound).  Arrays shorter than ``ALONG_MIN_POINTS`` points,
    and arrays of any other shape, are evaluated pointwise and equal
    :func:`gaussian_pole_integral` bit for bit; longer ones agree with it
    within 5e-14 relative.
    """
    zeta = np.asarray(zeta, dtype=complex)
    if zeta.ndim != 1 or zeta.size < ALONG_MIN_POINTS:
        return gaussian_pole_integral(zeta)
    n_full = zeta.size - zeta.size % _ALONG_BLOCK
    out = np.empty_like(zeta)
    blocks = zeta[:n_full].reshape(-1, _ALONG_BLOCK)
    out_blocks = out[:n_full].reshape(-1, _ALONG_BLOCK)
    anchors = blocks[:, _ALONG_BLOCK // 2]
    _carry_reference(blocks, anchors, gaussian_pole_integral(anchors),
                     out_blocks)
    if n_full < zeta.size:
        out[n_full:] = gaussian_pole_integral(zeta[n_full:])
    return out


def _carry_reference(blocks, anchors, j_anchors, out):
    """J on ``blocks`` (one per row) into ``out``: by the Taylor series
    about ``anchors`` where the rules allow, pointwise elsewhere."""
    u = blocks - anchors[:, None]
    # |u| in the real parts of ``out``, every entry of which J overwrites
    spread = np.abs(u, out=out.real).max(axis=1)
    modulus = np.abs(anchors)
    # r <= A/(2|zeta_a|^2), written so that it cannot overflow; below
    # |zeta_a| = 1 the radius rule is the stricter one
    floor = np.maximum(modulus, 1.0)
    limit = np.minimum(_ALONG_RADIUS,
                       (0.5 * _ALONG_AMPLIFICATION / floor) / floor)
    carried = ((spread > 0.0) & (spread <= limit)
               & (np.abs(modulus - _CF_RADIUS) > 2.0 * spread)
               & (np.abs(anchors.imag) > spread))
    if not carried.all():
        pointwise = ~carried
        out[pointwise] = gaussian_pole_integral(
            blocks[pointwise].ravel()).reshape(-1, _ALONG_BLOCK)
        if not carried.any():
            return
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


def line_paths(draw):
    """A straight path at the kernels' 1e-6 .. 5e-4 spacing through a
    point of |Re zeta| <= 12, 1e-4 <= |Im zeta| <= 3 (so across |zeta| = 8
    and, when tilted, across the real axis), scaled up to |zeta| ~ 1e150."""
    n = draw(PATH_LENGTHS)
    step = 10.0 ** draw(st.floats(-6.0, math.log10(5e-4))) * np.exp(
        1j * draw(st.floats(-np.pi, np.pi)))
    if draw(st.booleans()):
        im = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(
            st.floats(-4.0, math.log10(3.0)))
    else:       # the path crosses Im zeta = 0 between two samples
        im = step.imag * (n // 2 - draw(st.floats(0.0, n - 1.0)))
    centre = complex(draw(st.floats(-12.0, 12.0)), im)
    scale = 10.0 ** draw(st.sampled_from([0, 0, 0, 0, 3, 148]))
    return scale * (centre + step * (np.arange(n) - n // 2))


def dressed_paths(draw):
    """The dressed pole (Omega_c^2/(4q) - P)/Gamma_D over a symmetric grid
    of detunings; a tiny gamma_dec sends it to |zeta| ~ 1e140 next to
    q = 0."""
    n = draw(PATH_LENGTHS)
    delta = np.linspace(-1.0, 1.0, n) * draw(st.floats(20.0, 90.0))
    q = delta + 1j * 10.0 ** draw(st.floats(-140.0, math.log10(0.05)))
    omega_c = draw(st.floats(0.0, 20.0))
    p_pole = delta + draw(st.floats(-60.0, 60.0)) + 0.5j
    return (omega_c**2 / (4.0 * q) - p_pole) / draw(st.floats(2.0, 80.0))


# below, at and past the 2^14 points a path needs to be carried, with and
# without a remainder after the last block of 32
PATH_LENGTHS = st.one_of(
    st.integers(1, 3 * _ALONG_BLOCK),
    st.integers(ALONG_MIN_POINTS - 2 * _ALONG_BLOCK,
                ALONG_MIN_POINTS + 3 * _ALONG_BLOCK),
    st.integers(ALONG_MIN_POINTS, 2 * ALONG_MIN_POINTS + _ALONG_BLOCK))


@st.composite
def along_calls(draw):
    paths = [draw(st.sampled_from([line_paths, dressed_paths]))(draw)
             for _ in range(draw(st.integers(1, 3)))]
    poles = st.builds(complex, st.floats(-1e150, 1e150),
                      st.floats(-1e150, 1e150).filter(bool))
    points = draw(st.one_of(st.none(), st.lists(poles, max_size=4).map(
        lambda zs: np.array(zs, dtype=complex))))
    return paths, points


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


class TestOneCallAlongPaths:
    """Every path of one gaussian_pole_integral_along call equals the
    single-path reference bit for bit, and its points equal pointwise J:
    J at a point does not depend on the array the point is evaluated in."""

    @settings(max_examples=200, deadline=None)
    @given(call=along_calls())
    def test_matches_the_single_path_reference(self, call):
        paths, points = call
        assume(all(np.all(zeta.imag != 0.0) for zeta in paths))
        got = gaussian_pole_integral_along(*paths, points=points)
        assert len(got) == len(paths) + (points is not None)
        for zeta, j in zip(paths, got):
            assert same_bits(j, along_reference(zeta))
        if points is not None:
            assert same_bits(got[-1], gaussian_pole_integral(points))

    def test_one_pointwise_call(self, monkeypatch):
        paths = [np.linspace(-3.0 - 0.01j, 3.0 - 0.01j, 2**15 + 7),
                 np.linspace(7.9 - 0.5j, 8.1 - 0.5j, ALONG_MIN_POINTS),
                 np.linspace(1.0 + 0.2j, 1.1 + 0.2j, 100)]
        counted = TestGaussianPoleIntegralAlong.counting(monkeypatch)
        gaussian_pole_integral_along(*paths, points=np.array([0.3 - 0.5j]))
        assert len(counted) == 1
