"""The in-repo Faddeeva evaluation against its defining integral.

The reference is a dense trapezoid quadrature of
(1/sqrt(pi)) Integral[exp(-t^2)/(t - z)]; for an analytic integrand the
uniform trapezoid rule converges like exp(-2 pi d/h) where d is the pole
distance from the real axis, so with h ~ 2e-5 it is exact to rounding for
Im(z) >= 1e-4.  No external special-function library is involved.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton.faddeeva import (_BLOCK, _COEFFS, _CF_RADIUS, _L, SQRT_PI,
                               _w_continued_fraction, _w_rational, faddeeva_w,
                               gaussian_pole_difference,
                               gaussian_pole_integral)


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
    assert abs(faddeeva_w(z) - w_oracle(z)) / abs(w_oracle(z)) < 1e-10


def test_branch_crossover_is_seamless():
    # same accuracy immediately on both sides of the |z| = 10 switchover
    for z in (9.999 + 0.3j, 10.001 + 0.3j, 0.1 + 9.999j, 0.1 + 10.001j):
        assert abs(faddeeva_w(z) - w_oracle(z)) / abs(w_oracle(z)) < 1e-11


def test_known_values():
    # w(0) = 1; w(i y) = exp(y^2) erfc(y) is real
    assert faddeeva_w(0.0) == pytest.approx(1.0)
    wi = faddeeva_w(1j)
    assert wi.imag == pytest.approx(0.0, abs=1e-15)
    assert wi.real == pytest.approx(0.42758357615580700442, rel=1e-12)


def test_lower_half_plane_reflection():
    z = 1.3 - 0.7j
    expected = 2.0 * np.exp(-z**2) - faddeeva_w(-z)
    assert faddeeva_w(z) == pytest.approx(expected, rel=1e-12)


def test_vectorized_matches_scalar():
    zs = np.array([0.5 + 0.5j, -2.0 + 1e-3j, 15.0 + 2.0j, 1.0 - 0.2j])
    vec = faddeeva_w(zs)
    for i, z in enumerate(zs):
        assert vec[i] == faddeeva_w(complex(z))


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


@pytest.mark.parametrize("size", [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                                  3 * _BLOCK + 7])
def test_blocked_rational_is_bit_identical_to_one_pass(size):
    z = upper_half_plane_points(size, seed=size + 1)
    assert np.array_equal(_w_rational(z), rational_single_pass(z))


def test_blocked_rational_keeps_the_shape_of_its_input():
    z = upper_half_plane_points(2 * _BLOCK + 6, seed=3).reshape(2, -1)
    got = _w_rational(z)
    assert got.shape == z.shape
    assert np.array_equal(got.ravel(), rational_single_pass(z.ravel()))


def test_blocked_rational_in_a_gathered_mixed_branch_array():
    # about two thirds of the points lie past the continued-fraction radius,
    # so the rational runs, blocked, on a gathered copy of the rest
    z = upper_half_plane_points(3 * _BLOCK + 7, seed=5, radius=12.0)
    far = np.abs(z) >= _CF_RADIUS
    assert 0 < np.count_nonzero(far) and np.count_nonzero(~far) > _BLOCK
    want = np.empty_like(z)
    want[~far] = rational_single_pass(z[~far])
    want[far] = _w_continued_fraction(z[far])
    assert np.array_equal(faddeeva_w(z), want)


@settings(max_examples=60, deadline=None)
@given(x=st.floats(-30, 30), y=st.floats(1e-3, 30))
def test_conjugation_symmetry(x, y):
    # w(-conj(z)) = conj(w(z)) maps the UHP to itself
    z = complex(x, y)
    assert faddeeva_w(-np.conj(z)) == pytest.approx(np.conj(faddeeva_w(z)),
                                                    rel=1e-12)


def test_asymptotic_tail():
    z = 3e7 + 4e7j
    assert faddeeva_w(z) == pytest.approx(1j / (SQRT_PI * z), rel=1e-10)


class TestGaussianPoleIntegral:
    @pytest.mark.parametrize("zeta", [0.4 + 0.2j, -1.1 + 3.0j, 6.0 + 1e-3j])
    def test_upper_half_plane(self, zeta):
        assert gaussian_pole_integral(zeta) == pytest.approx(j_oracle(zeta),
                                                             rel=1e-10)

    @pytest.mark.parametrize("zeta", [0.4 - 0.2j, -1.1 - 3.0j, 6.0 - 1e-3j])
    def test_lower_half_plane(self, zeta):
        assert gaussian_pole_integral(zeta) == pytest.approx(j_oracle(zeta),
                                                             rel=1e-10)

    def test_half_plane_jump_is_the_gaussian_residue(self):
        # J jumps by 2 i sqrt(pi) exp(-x^2) across the real axis
        x = 0.8
        up = gaussian_pole_integral(x + 1e-9j)
        dn = gaussian_pole_integral(x - 1e-9j)
        assert (up - dn) / (2j * SQRT_PI) == pytest.approx(np.exp(-x**2),
                                                           rel=1e-6)

    def test_real_axis_rejected(self):
        with pytest.raises(ValueError):
            gaussian_pole_integral(1.0 + 0.0j)


# midpoints on both sides of the |m| = 8 switch between the Taylor and the
# asymptotic series, in the lower half-plane where the kernels' poles lie
@pytest.mark.parametrize("m", [0.3 - 0.2j, -5.864 - 0.00926j, 7.9 - 1.0j,
                               8.1 - 0.5j, -40.0 - 0.01j])
@pytest.mark.parametrize("rel_sep", [1e-3, 1e-7, 0.0])
def test_pole_difference_matches_quadrature_oracle(m, rel_sep):
    h = rel_sep * max(1.0, abs(m)) * np.exp(0.4j)
    z0, z1 = m - h / 2, m + h / 2
    got = gaussian_pole_difference(z0, z1)
    want = difference_oracle(z0, z1)
    assert abs(got - want) / abs(want) < 1e-10


def test_pole_difference_is_the_plain_difference_when_apart():
    z0, z1 = 2.0 - 0.3j, 2.001 - 0.3j
    j0, j1 = gaussian_pole_integral(np.array([z0, z1]))
    plain = (j1 - j0) / (z1 - z0)
    assert gaussian_pole_difference(z0, z1) == pytest.approx(plain, rel=1e-9)
    vec = gaussian_pole_difference(np.array([z0, 9.0 - 1j]), z1)
    assert vec[0] == gaussian_pole_difference(z0, z1)
