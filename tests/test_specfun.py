import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smig import specfun
from smig.errors import DomainError, SingularityError
from smig.specfun import SeriesTruncation, bessel_j, bessel_y, hankel1_0, jacobi_anger_partial

from oracle_values import H0_AT_10, J0_ZEROS, PSI_SPOT, Y0_AT_1


def test_j0_at_zero():
    assert bessel_j(0, 0.0) == 1.0


def test_j3_at_zero():
    assert bessel_j(3, 0.0) == 0.0


def test_j0_first_zero():
    assert abs(bessel_j(0, J0_ZEROS[0])) <= 1e-12


def test_negative_even_order_reduces():
    assert bessel_j(-2, 1.5) == bessel_j(2, 1.5)


def test_negative_odd_order_flips_sign():
    assert bessel_j(-3, 2.2) == -bessel_j(3, 2.2)


@pytest.mark.parametrize("x", [0.5, 3.0, 10.0])
def test_wronskian(x):
    lhs = bessel_j(0, x) * bessel_y(1, x) - bessel_j(1, x) * bessel_y(0, x)
    assert abs(lhs - (-2.0 / (math.pi * x))) <= 1e-9


def test_y0_log_singularity_sign():
    v = bessel_y(0, 1e-6)
    assert v.real < 0
    assert abs(v) > 8


def test_y0_oracle():
    assert abs(bessel_y(0, 1.0) - Y0_AT_1) <= 1e-13


def test_h0_asymptotic_magnitude():
    expected = math.sqrt(2.0 / (math.pi * 50.0))
    assert abs(abs(hankel1_0(50.0)) - expected) / expected <= 0.02


def test_h0_compositional():
    assert hankel1_0(1.0) == bessel_j(0, 1.0) + 1j * bessel_y(0, 1.0)


def test_h0_oracle():
    assert abs(hankel1_0(10.0) - H0_AT_10) <= 1e-13


def test_jacobi_anger_x_zero():
    assert jacobi_anger_partial(0.0, 1.234) == 1.0


def test_jacobi_anger_identity():
    got = jacobi_anger_partial(5.0, math.pi / 3, SeriesTruncation(40, 1e-12))
    assert abs(got - cmath.exp(1j * 5.0 * math.cos(math.pi / 3))) <= 1e-10


def test_jacobi_anger_truncation_failure():
    # Oracle is the exponential itself; S_max far below x must miss it.
    got = jacobi_anger_partial(20.0, 1.1, SeriesTruncation(10, 1e-10))
    assert abs(got - cmath.exp(1j * 20.0 * math.cos(1.1))) > 1e-3


def test_jacobi_anger_monotone_convergence():
    # The error envelope decreases past S_max = ceil(x) until it hits the
    # double-precision floor; single steps can wobble with the cos(s theta)
    # sign pattern, so compare five orders apart.
    for x in (4.7, 12.3, 19.5):
        target = cmath.exp(1j * x * math.cos(0.9))
        errs = [
            abs(jacobi_anger_partial(x, 0.9, SeriesTruncation(s, 1e-15)) - target)
            for s in range(math.ceil(x), math.ceil(x) + 26)
        ]
        assert all(errs[i + 5] <= max(errs[i], 1e-11) for i in range(len(errs) - 5))
        assert errs[-1] <= 1e-10


def test_psi_spot_value():
    # exp(i 8 cos 0.7) - J0(8), frozen from the high-precision oracle.
    got = jacobi_anger_partial(8.0, 0.7, SeriesTruncation(40, 1e-14)) - bessel_j(0, 8.0)
    assert abs(got - PSI_SPOT) <= 1e-12


@given(
    s=st.integers(min_value=0, max_value=30),
    re=st.floats(min_value=-17.0, max_value=17.0),
    im=st.floats(min_value=-5.0, max_value=5.0),
)
def test_negation_symmetry_exact(s, re, im):
    z = complex(re, im)
    expected = bessel_j(s, z) if s % 2 == 0 else -bessel_j(s, z)
    assert bessel_j(-s, z) == expected


@given(
    s=st.integers(min_value=1, max_value=30),
    re=st.floats(min_value=0.05, max_value=17.0),
    im=st.floats(min_value=-5.0, max_value=5.0),
)
def test_recurrence_residual(s, re, im):
    z = complex(re, im)
    jm, jc, jp = bessel_j(s - 1, z), bessel_j(s, z), bessel_j(s + 1, z)
    residual = abs(jm + jp - (2.0 * s / z) * jc)
    assert residual <= 1e-8 * max(1.0, abs(jc))


@given(x=st.floats(min_value=1e-3, max_value=25.0))
def test_normalization_identity(x):
    s_max = int(math.ceil(x)) + 20
    seq = specfun._j_sequence(x, s_max)
    total = abs(seq[0]) ** 2 + 2.0 * np.sum(np.abs(seq[1:]) ** 2)
    assert abs(total - 1.0) <= 1e-10


@settings(max_examples=50)
@given(x=st.floats(min_value=0.0, max_value=25.0), theta=st.floats(min_value=-math.pi, max_value=math.pi))
def test_jacobi_anger_converged_matches_exponential(x, theta):
    trunc = SeriesTruncation(int(math.ceil(x)) + 25, 1e-10)
    got = jacobi_anger_partial(x, theta, trunc)
    assert abs(got - cmath.exp(1j * x * math.cos(theta))) <= trunc.abs_tol


def test_order_limit():
    with pytest.raises(DomainError):
        bessel_j(513, 1.0)


def test_argument_limit():
    with pytest.raises(DomainError):
        bessel_j(0, 1.1e4)


def test_y_order_outside_support():
    with pytest.raises(DomainError):
        bessel_y(2, 1.0)


def test_y_singular_at_zero():
    with pytest.raises(SingularityError):
        bessel_y(0, 0.0)


def test_h0_singular_at_zero():
    with pytest.raises(SingularityError):
        hankel1_0(0.0)


def test_truncation_invariants():
    with pytest.raises(DomainError):
        SeriesTruncation(0, 1e-10)
    with pytest.raises(DomainError):
        SeriesTruncation(10, 0.0)


def test_jacobi_anger_negative_x():
    with pytest.raises(DomainError):
        jacobi_anger_partial(-1.0, 0.0)


def test_array_argument_path():
    z = np.array([0.3, 4.2, 24.0, 30.0])
    got = bessel_j(0, z)
    for zi, gi in zip(z, got):
        assert abs(gi - bessel_j(0, float(zi))) <= 1e-13


@pytest.mark.parametrize("s, z", [(8, 0.05), (20, 1.0), (30, 5.0), (5, complex(2.5, -3.1))])
def test_scalar_matches_mpmath_and_array(s, z):
    # High orders at small |z|: J_s is tiny, so only a relative stopping rule keeps full precision.
    with mpmath.workdps(30):
        ref = complex(mpmath.besselj(s, mpmath.mpmathify(z)))
    got = bessel_j(s, z)
    assert abs(got - ref) <= 1e-10 * abs(ref)
    assert got == bessel_j(s, np.array([z]))[0]


def test_hankel_sequence_array_matches_scalar_calls():
    z = np.array([0.7, 3.0 + 0.4j, 24.0, 31.0])
    got = specfun.hankel1_sequence(z, 12)
    assert got.shape == (13, 4)
    for i, zi in enumerate(z):
        ref = specfun.hankel1_sequence(zi, 12)
        assert np.abs(got[:, i] - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("z", [complex(188.0, 16.8), complex(60.0, 15.0), complex(30.0, -2.0)])
def test_large_lossy_hankel_matches_mpmath(z):
    # Above |z| = 25 with Im z > 0, J + iY cancels; H^(1) must come from its own expansion.
    with mpmath.workdps(30):
        ref = np.array([complex(mpmath.hankel1(s, mpmath.mpmathify(z))) for s in range(6)])
    rel = 1e-12 * np.abs(ref)
    assert abs(hankel1_0(z) - ref[0]) <= rel[0]
    assert abs(hankel1_0(np.array([z, 2.0]))[0] - ref[0]) <= rel[0]
    assert np.all(np.abs(specfun.hankel1_sequence(z, 5) - ref) <= rel)
    assert np.all(np.abs(specfun.hankel1_sequence(np.array([[z]]), 5)[:, 0, 0] - ref) <= rel)
