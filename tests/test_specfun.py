import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smig import em, specfun
from smig.errors import DomainError, SingularityError, TruncationError
from smig.specfun import SeriesTruncation, bessel_j, bessel_y, hankel1_0

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
    j0, harmonics = specfun._jacobi_anger_terms(0.0, [1.234, -2.0], 64)
    assert j0 == 1.0 and np.all(harmonics == 0.0)


def test_jacobi_anger_identity():
    j0, harmonics = specfun._jacobi_anger_terms(5.0, [math.pi / 3], 40)
    assert abs(j0 + harmonics[0] - cmath.exp(1j * 5.0 * math.cos(math.pi / 3))) <= 1e-10


def test_jacobi_anger_truncation_failure():
    # Oracle is the exponential itself; S_max far below x must miss it.
    j0, harmonics = specfun._jacobi_anger_terms(20.0, [1.1], 10)
    assert abs(j0 + harmonics[0] - cmath.exp(1j * 20.0 * math.cos(1.1))) > 1e-3


def test_jacobi_anger_monotone_convergence():
    # The error envelope decreases past S_max = ceil(x) until it hits the
    # double-precision floor; single steps can wobble with the cos(s theta)
    # sign pattern, so compare five orders apart.
    for x in (4.7, 12.3, 19.5):
        target = cmath.exp(1j * x * math.cos(0.9))
        errs = []
        for s in range(math.ceil(x), math.ceil(x) + 26):
            j0, harmonics = specfun._jacobi_anger_terms(x, [0.9], s)
            errs.append(abs(j0 + harmonics[0] - target))
        assert all(errs[i + 5] <= max(errs[i], 1e-11) for i in range(len(errs) - 5))
        assert errs[-1] <= 1e-10


def test_psi_spot_value():
    # The harmonic sum is exp(i 8 cos 0.7) - J0(8), frozen from the
    # high-precision oracle.
    _, harmonics = specfun._jacobi_anger_terms(8.0, [0.7], 40)
    assert abs(harmonics[0] - PSI_SPOT) <= 1e-12


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
    j0, harmonics = specfun._jacobi_anger_terms(x, [theta], math.ceil(x) + 25)
    assert abs(j0 + harmonics[0] - cmath.exp(1j * x * math.cos(theta))) <= 1e-10


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


_PAPER_MEDIUM = em.MediumParams.from_relative(20.0, 0.2, 1.0e9)
_TABLE_KS = [em.wavenumber(_PAPER_MEDIUM).k, em.lossless_wavenumber(_PAPER_MEDIUM).k]


@pytest.mark.parametrize("k", _TABLE_KS, ids=["lossy", "lossless"])
def test_distance_table_matches_hankel1_0(k):
    # |k| d from just below the exact floor to 40: both sides of the floor
    # and of the |z| = 25 switch.
    floor = specfun._TABLE_FLOOR
    edges = floor * np.array([1 - 1e-3, 1 - 1e-9, 1 + 1e-9, 1 + 1e-3])
    kd = np.concatenate([edges, np.linspace(floor, 40.0, 40001), [24.999, 25.001]])
    d = kd / abs(k)
    got = specfun.hankel1_0_table(k, d.min(), d.max())(d)
    ref = hankel1_0(k * d)
    assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))
    assert not np.array_equal(got, ref)  # the tabulated path ran


@pytest.mark.parametrize("k", _TABLE_KS, ids=["lossy", "lossless"])
def test_distance_table_over_explicit_range(k):
    # One table over [lo, hi], evaluated in pieces as the imaging sweep does:
    # inside the range it agrees with hankel1_0, outside it (below the floor,
    # past hi) every distance takes hankel1_0 bit for bit.
    lo, hi = 0.3 / abs(k), 30.0 / abs(k)
    table = specfun.hankel1_0_table(k, lo, hi)
    assert table.coef.shape[1] > 0 and table.lo == specfun._TABLE_FLOOR / abs(k)
    d = np.linspace(lo, hi, 30001)
    for piece in np.array_split(d, 7):
        ref = hankel1_0(k * piece)
        assert np.all(np.abs(table(piece) - ref) <= 1e-12 * np.abs(ref))
    outside = np.array([0.1, 0.35, 30.5, 40.0]) / abs(k)
    assert np.array_equal(table(outside), hankel1_0(k * outside))


@pytest.mark.parametrize("k", _TABLE_KS, ids=["lossy", "lossless"])
def test_distance_table_exact_values(k):
    # A below-floor distance takes hankel1_0's value bit for bit, alone or
    # among any others in a call: below |z| = 1 hankel1_0's Miller batch starts
    # at the same order whatever the batch.  So does every distance of a
    # table without segments.
    d = np.linspace(0.5, 30.0, 20001) / abs(k)
    table = specfun.hankel1_0_table(k, d[0], d[-1])
    below = np.array([1e-7, 0.05, 0.2, 0.39]) / abs(k)
    alone = np.array([hankel1_0(k * x) for x in below])
    assert np.array_equal(table(below), alone)
    assert np.array_equal(table(np.concatenate([d[::997], below]))[-below.size:], alone)
    bare = specfun.DistanceTable(k, table.lo, table.hi, table.coef[:, :0])
    assert np.array_equal(bare(below), alone)


def test_distance_table_keeps_exact_errors():
    # With segments or without (a range below the floor), d = 0 and |k d|
    # past MAX_ARGUMENT lie outside [lo, hi] and raise from hankel1_0.
    k = _TABLE_KS[0]
    for d, segments in ((np.linspace(0.01, 0.2, 5000), True),
                        (np.linspace(0.001, 0.003, 50), False)):
        table = specfun.hankel1_0_table(k, d[0], d[-1])
        assert (table.coef.shape[1] > 0) == segments
        with pytest.raises(SingularityError):
            table(np.append(d, 0.0))
        with pytest.raises(DomainError):
            table(np.append(d, 2 * specfun.MAX_ARGUMENT / abs(k)))


@pytest.mark.parametrize("fn, lead", [
    (hankel1_0, ()),
    (lambda z: bessel_j(0, z), ()),
    (lambda z: bessel_j(7, z), ()),
    (lambda z: bessel_y(1, z), ()),
    (lambda z: specfun.hankel1_sequence(z, 3), (4,)),
])
def test_empty_argument_gives_empty_result(fn, lead):
    assert fn(np.array([])).shape == lead + (0,)
    assert fn(np.zeros((0, 3))).shape == lead + (0, 3)


@pytest.mark.parametrize("x", [2.0 * specfun.MAX_ARGUMENT, math.inf, math.nan])
def test_jacobi_anger_terms_check_argument(x):
    # The harmonic sum behind the structure series takes the same argument
    # check as every other entry point instead of running ~x Miller steps.
    with pytest.raises(DomainError):
        specfun._jacobi_anger_terms(np.array([0.5, x]), np.zeros((2, 4)), 8)


@pytest.mark.parametrize("s_max", [16, 128, 512])
@pytest.mark.parametrize("phase", [0.0, 0.7], ids=["real", "complex"])
@pytest.mark.parametrize("magnitude", [1.0001e-6, 2e-6, 1e-4])
def test_j_sequence_rescale_stride_near_the_series_cutoff(magnitude, phase, s_max):
    # Just above the ascending-series cutoff the recurrence grows by up to
    # (2s/|z| + 1)^8 between two rescale checks; |z| = 25 in the same batch
    # starts it at a higher order.  Orders below the double range are 0.
    z = np.array([magnitude * cmath.exp(1j * phase), 25.0])
    seq = specfun._j_sequence(z, s_max)
    assert np.all(np.isfinite(seq))
    with mpmath.workdps(40):
        for i, s in ((0, 10), (0, s_max), (1, 10), (1, s_max)):
            ref = complex(mpmath.besselj(s, mpmath.mpmathify(complex(z[i]))))
            if abs(ref) > 1e-290:
                assert abs(seq[s, i] - ref) <= 1e-10 * abs(ref)
            else:
                assert abs(seq[s, i]) <= 1e-290


def _ascending_series_loop(z, s_max):
    """J_0 .. J_s_max of |z| < 1e-6 by the two-term ascending series, order by order."""
    q = z * z / 4.0
    base = np.ones_like(z)
    out = [1.0 - q]
    for s in range(1, s_max + 1):
        base = base * (z / 2.0) / s
        out.append(base * (1.0 - q / (s + 1)))
    return np.array(out)


@pytest.mark.parametrize("s_max", [1, 16, 64, 512])
def test_j_sequence_tiny_arguments_match_the_order_loop(s_max):
    # The ascending series of the tiny points of a mixed batch is one
    # cumulative product over the orders: within 1e-15 of the order-by-order
    # loop wherever the loop's value is a normal float, and the points of the
    # Miller batch are unchanged by it.
    tiny = np.array([0.0, 1e-7, -1e-7, 9.9e-7], dtype=complex)
    z = np.concatenate([tiny, [0.5, 3.0, 24.0]])
    seq = specfun._j_sequence(z, s_max)
    ref = _ascending_series_loop(tiny, s_max)
    normal = np.abs(ref) >= np.finfo(float).tiny
    assert np.all(np.abs(seq[:, :4] - ref)[normal] <= 1e-15 * np.abs(ref)[normal])
    assert np.all(np.abs(seq[:, :4][~normal]) < np.finfo(float).tiny)
    assert np.all(seq[1:, 0] == 0.0) and seq[0, 0] == 1.0
    assert np.array_equal(seq[:, 4:], specfun._j_sequence(z[4:], s_max))


@pytest.mark.parametrize("x, order", [(0.0, 64), (31.9, 64), (63.8, 105), (319.2, 453)])
def test_covering_truncation_order(x, order):
    # The smallest order S >= 64 with (x/2)^S / S! <= abs_tol.
    trunc = specfun.covering_truncation(x, 1e-10)
    assert trunc == SeriesTruncation(order, 1e-10)
    bound = lambda s: math.exp(s * math.log(x / 2.0) - math.lgamma(s + 1)) if x else 0.0
    assert bound(order) <= 1e-10
    assert order == 64 or bound(order - 1) > 1e-10


@pytest.mark.parametrize("x", [640.0, math.inf, math.nan])
def test_covering_truncation_past_max_order(x):
    with pytest.raises(TruncationError, match="past 512"):
        specfun.covering_truncation(x, 1e-10)


def test_neumann_products_match_the_per_order_sum():
    # Reference: the Neumann sums accumulated order by order; the products
    # may add the terms in another order.
    rng = np.random.default_rng(3)
    x = rng.uniform(1e-3, 25.0, 200)
    z = np.concatenate([x, x * np.exp(1j * rng.uniform(-0.2, 0.2, 200))])
    seq = specfun._near_batch(z, 1)
    s0 = np.zeros_like(z)
    s1 = np.zeros_like(z)
    for k in range(1, (seq.shape[0] - 2) // 2 + 1):
        ck = (1.0 if k % 2 else -1.0) / k
        s0 = s0 + ck * seq[2 * k]
        s1 = s1 + ck * (seq[2 * k - 1] - seq[2 * k + 1])
    ell = np.log(z / 2.0) + specfun.EULER_GAMMA
    ref0 = (2.0 / np.pi) * ell * seq[0] + (4.0 / np.pi) * s0
    ref1 = (2.0 / np.pi) * ell * seq[1] - (2.0 / (np.pi * z)) * seq[0] - (2.0 / np.pi) * s1
    y0, y1 = specfun._y01_from_sequence(z, seq)
    for got, ref in ((y0, ref0), (y1, ref1)):
        assert np.all(np.abs(got - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))
