import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smig import em, forward, imaging, specfun, structure
from smig.errors import DomainError, TruncationError
from smig.specfun import SeriesTruncation, bessel_j
from smig.structure import StructureConfig, ValidityMarginWarning

from oracle_values import K_LOSSLESS


@pytest.fixture(scope="module")
def k_real():
    return K_LOSSLESS


def test_structure_full_peak_is_one(paper_array, k_real):
    assert structure.structure_full((0.01, 0.03), paper_array, k_real, (0.01, 0.03)) == 1.0


def test_structure_full_reduction_no_artifacts(paper_array, k_real):
    r = (0.028, 0.004)
    r_star = (0.01, 0.03)
    got = structure.structure_full(r, paper_array, k_real, r_star)
    g = structure._ring_average(k_real, paper_array, r, r_star, SeriesTruncation())
    assert abs(got - abs(g * g)) <= 1e-14


def test_structure_full_matches_plane_wave_bilinear_on_ring(paper_array, k_real, r_star):
    # Brute-force oracle: the squared antenna-averaged plane-wave sum.
    lam = 2.0 * math.pi / k_real
    for angle in np.linspace(0.0, 2.0 * math.pi, 9)[:-1]:
        r = r_star + (lam / 4.0) * np.array([math.cos(angle), math.sin(angle)])
        phases = paper_array.directions @ (r - r_star)
        g = np.mean(np.exp(1j * k_real * phases))
        got = structure.structure_full(r, paper_array, k_real, r_star)
        assert abs(got - abs(g * g)) <= 1e-8


@pytest.mark.parametrize("count", [4, 8, 16, 32])
def test_structure_diag_peak_is_one(count, k_real):
    array = em.antenna_array(count, 0.09)
    val = structure.structure_diag((0.01, 0.03), array, k_real, (0.01, 0.03))
    assert abs(val - 1.0) <= 1e-12


def test_structure_diag_large_array_limit(k_real, r_star):
    r = r_star + np.array([0.012, -0.007])
    dist = np.hypot(*(r - r_star))
    j0sq = abs(bessel_j(0, k_real * dist)) ** 2
    errs = {}
    for count in (16, 64, 512):
        array = em.antenna_array(count, 0.09)
        errs[count] = abs(structure.structure_diag(r, array, k_real, r_star) - j0sq)
        assert errs[count] <= 2.5 / (count - 1)
    assert errs[512] < errs[16]


def test_structure_diag_spot_against_double_sum(paper_array, k_real, r_star):
    dev = structure.validate_diag_identity(
        [r_star + np.array([0.01, 0.0])], paper_array, k_real, r_star
    )
    assert dev <= 1e-8


@pytest.mark.parametrize("bad_k", [0.0, -93.7, math.nan, math.inf])
@pytest.mark.parametrize("entry", [structure.structure_full, structure.structure_diag,
                                   structure.validate, structure.validate_diag_identity])
def test_structure_entry_points_need_a_positive_finite_wavenumber(paper_array, r_star,
                                                                   entry, bad_k):
    with pytest.raises(DomainError, match="0 < k < inf"):
        entry(np.array([[0.0, 0.0]]), paper_array, bad_k, r_star)


def test_ideal_matrix_at_origin(paper_array, k_real):
    s = structure.ideal_plane_wave_matrix(paper_array, k_real, (0.0, 0.0))
    assert np.allclose(s.entries, 1.0 / paper_array.count, atol=1e-15)


def test_ideal_matrix_symmetric(paper_array, k_real, r_star):
    s = structure.ideal_plane_wave_matrix(paper_array, k_real, r_star)
    assert np.abs(s.entries - s.entries.T).max() <= 1e-15


def test_ideal_matrix_full_is_rank_one(paper_array, k_real, r_star):
    s = structure.ideal_plane_wave_matrix(paper_array, k_real, r_star)
    tau = np.linalg.svd(s.entries, compute_uv=False)
    assert tau[1] / tau[0] <= 1e-12


def test_ideal_matrix_zero_diag_kind(paper_array, k_real, r_star):
    s = structure.ideal_plane_wave_matrix(
        paper_array, k_real, r_star, kind=forward.KIND_ZERO_DIAGONAL
    )
    assert np.all(np.diag(s.entries) == 0)


def test_validate_identity_at_center(paper_array, k_real, r_star):
    assert structure.validate_diag_identity([r_star], paper_array, k_real, r_star) <= 1e-12


def test_validate_identity_subgrid(paper_array, k_real, r_star):
    pts = [(x, y) for x in np.linspace(-0.08, 0.08, 7) for y in np.linspace(-0.08, 0.08, 7)]
    dev = structure.validate_diag_identity(pts, paper_array, k_real, r_star)
    assert dev <= 1e-8


# Criterion 3's points: the 21 x 21 lattice over the default grid.
_VALIDATE_POINTS = np.array([
    (x, y) for x in np.linspace(-0.1, 0.1, 21) for y in np.linspace(-0.1, 0.1, 21)
])


@pytest.mark.parametrize("count", [16, 32])
def test_validate_shares_the_identity_deviation(k_real, r_star, count):
    array = em.antenna_array(count, 0.09)
    trunc = SeriesTruncation(64, 1e-10)
    deviation, _ = structure.validate(_VALIDATE_POINTS, array, k_real, r_star, trunc)
    assert deviation == structure.validate_diag_identity(_VALIDATE_POINTS, array, k_real, r_star,
                                                         trunc)


@pytest.mark.filterwarnings("ignore::smig.structure.ValidityMarginWarning")
def test_validate_spread_matches_per_point_series(paper_array, k_real, r_star):
    # Criterion 3's independent computation: one scalar series call per point.
    # The batch and scalar series agree to ~3e-17, but the ratio divides by
    # series values down to 7e-4, so the two spreads (~5e-13 each) agree to
    # ~1e-14, not to the series' own rounding.
    pts = _VALIDATE_POINTS
    trunc = SeriesTruncation(64, 1e-10)
    _, spread = structure.validate(pts, paper_array, k_real, r_star, trunc)
    ideal = structure.ideal_plane_wave_matrix(
        paper_array, k_real, r_star, kind=forward.KIND_ZERO_DIAGONAL
    )
    response = structure.migration_response(ideal, paper_array, k_real, pts)
    series = np.array([
        structure.structure_diag(p, paper_array, k_real, r_star, StructureConfig(trunc))
        for p in pts
    ])
    keep = series > 1e-9
    ratios = response[keep] / series[keep]
    assert abs(spread - float(ratios.max() - ratios.min())) <= 1e-13


def test_validate_identity_truncation_failure(paper_array, k_real, r_star):
    # Five orders cannot carry the series to 2k|r - r*| = 20: the deviation
    # they gave was above 1e-3, so the series refuse them.
    r = r_star + np.array([10.0 / k_real, 0.0])
    with pytest.raises(TruncationError, match="order 5 leaves a term bound"):
        structure.validate_diag_identity([r], paper_array, k_real, r_star,
                                         SeriesTruncation(5, 1e-10))


@pytest.mark.filterwarnings("ignore::smig.structure.ValidityMarginWarning")
def test_series_refuse_a_truncation_short_of_their_tolerance(paper_array, r_star):
    # At 3 GHz these points reach 2k|r - r*| = 64.1.  The default 64 orders
    # left a deviation of 4.2e-6 from the double sum, against the promised
    # 1e-10; covering_truncation's 106 orders leave 7.9e-16.  structure_full
    # reaches only k|r - r*| = 32.1, where 64 orders bound the tail by 1.0e-12.
    k = 3.0 * K_LOSSLESS
    pts = np.array([(-0.06, -0.06), (0.05, -0.07)])
    reach = 2.0 * k * np.hypot(*(pts - r_star).T).max()
    assert 64.0 < reach < 64.2
    tight = SeriesTruncation(64, 1e-300)
    for trunc in (SeriesTruncation(), tight):
        with pytest.raises(TruncationError):
            structure.structure_diag(pts, paper_array, k, r_star, StructureConfig(trunc))
        with pytest.raises(TruncationError):
            structure.validate(pts, paper_array, k, r_star, trunc)
        with pytest.raises(TruncationError):
            structure.validate_diag_identity(pts, paper_array, k, r_star, trunc)
    assert structure.structure_full(pts, paper_array, k, r_star).shape == (2,)
    with pytest.raises(TruncationError):
        structure.structure_full(pts, paper_array, k, r_star, StructureConfig(tight))
    covering = specfun.covering_truncation(reach)
    assert covering.max_order == 106
    assert structure.validate_diag_identity(pts, paper_array, k, r_star, covering) <= 1e-10


@pytest.mark.filterwarnings("ignore::smig.structure.ValidityMarginWarning")
@pytest.mark.parametrize("factor", [3.0, 6.0])
def test_series_size_their_own_truncation(paper_array, r_star, factor):
    # Given no truncation, each series takes covering_truncation at its own
    # reach: at 6 GHz these points reach k|r - r*| = 64.1 and 2k|r - r*| =
    # 128.2, where the default 64 orders fall short of 1e-10.
    k = factor * K_LOSSLESS
    pts = np.array([(-0.06, -0.06), (0.05, -0.07)])
    n = paper_array.count
    e = np.exp(1j * k * ((pts - r_star) @ paper_array.directions.T))
    g = np.mean(e, axis=1)
    double_sum = np.abs(np.sum(e, axis=1) ** 2 - np.sum(e * e, axis=1)) / (n * (n - 1))
    full = structure.structure_full(pts, paper_array, k, r_star)
    assert np.abs(full - np.abs(g * g)).max() <= 1e-10
    assert np.abs(structure.structure_diag(pts, paper_array, k, r_star) - double_sum).max() <= 1e-10
    assert structure.validate(pts, paper_array, k, r_star)[0] <= 1e-10


@pytest.mark.filterwarnings("ignore::smig.structure.ValidityMarginWarning")
@pytest.mark.parametrize("count, factor", [(3, 1.0), (5, 1.0), (16, 1.0), (64, 1.0),
                                           (16, 2.0), (16, 3.0)])
def test_first_pair_map_of_ideal_zero_diagonal_data_is_structure_full(r_star, count, factor):
    # The ideal zero-diagonal matrix is D(11^T - I)D/N with D = diag(v): its
    # first pair is v/sqrt(N) and conj(v)/sqrt(N), so the sweep's map is |g^2|.
    # N = 2 is left out: there tau_1 = tau_2 = 1/2, no first pair is
    # singled out, and the map deviates from |g^2| by 0.50.
    array = em.antenna_array(count, 0.09)
    k = factor * K_LOSSLESS
    ideal = structure.ideal_plane_wave_matrix(array, k, r_star, kind=forward.KIND_ZERO_DIAGONAL,
                                              frequency_hz=factor * 1e9)
    grid = imaging.ImagingGrid(-0.1, 0.1, -0.1, 0.1, 0.01)
    [image] = imaging.image([ideal], grid, array, em.ComplexWavenumber(complex(k)),
                            steering=imaging.STEERING_PLANE_WAVE)
    series = structure.structure_full(imaging.lattice(grid.x_axis(), grid.y_axis()), array, k,
                                      r_star)
    assert np.abs(image.values.ravel() - series).max() <= 1e-13 * series.max()


def test_validate_on_no_points(paper_array, k_real, r_star):
    none = np.empty((0, 2))
    assert structure.validate(none, paper_array, k_real, r_star) == (0.0, 0.0)
    assert structure.validate_diag_identity(none, paper_array, k_real, r_star) == 0.0


@settings(max_examples=100)
@given(
    dx=st.floats(min_value=-0.1, max_value=0.1),
    dy=st.floats(min_value=-0.1, max_value=0.1),
)
def test_double_sum_identity(paper_array, k_real, dx, dy):
    # (1/N) (sum_n e)^2 == N (J0 + Psi1_avg)^2 within truncation.
    delta = np.array([dx, dy])
    n = paper_array.count
    e = np.exp(1j * k_real * (paper_array.directions @ delta))
    lhs = np.sum(e) ** 2 / n
    trunc = SeriesTruncation(64, 1e-12)
    g = structure._ring_average(k_real, paper_array, delta, (0.0, 0.0), trunc)
    assert abs(lhs - n * g * g) <= 1e-8


@settings(max_examples=100)
@given(
    dx=st.floats(min_value=-0.085, max_value=0.085),
    dy=st.floats(min_value=-0.085, max_value=0.085),
)
def test_diagonal_sum_identity(paper_array, k_real, dx, dy):
    # (1/N) sum_n e^{2ik theta_n . delta} == J0(2k delta) + Psi1_avg(2k).
    delta = np.array([dx, dy])
    e = np.exp(2j * k_real * (paper_array.directions @ delta))
    lhs = np.mean(e)
    trunc = SeriesTruncation(64, 1e-12)
    rhs = structure._ring_average(2 * k_real, paper_array, delta, (0.0, 0.0), trunc)
    assert abs(lhs - rhs) <= 1e-8


@pytest.mark.filterwarnings("ignore::smig.structure.ValidityMarginWarning")
def test_migration_response_ratio_constant(paper_array, k_real, r_star):
    ideal = structure.ideal_plane_wave_matrix(
        paper_array, k_real, r_star, kind=forward.KIND_ZERO_DIAGONAL
    )
    pts = np.array([(x, y) for x in np.linspace(-0.07, 0.07, 11)
                    for y in np.linspace(-0.07, 0.07, 11)])
    response = structure.migration_response(ideal, paper_array, k_real, pts)
    series = np.array([
        structure.structure_diag(p, paper_array, k_real, r_star) for p in pts
    ])
    keep = series > 1e-9
    ratios = response[keep] / series[keep]
    n = paper_array.count
    assert ratios.max() - ratios.min() <= 1e-6
    assert abs(np.median(ratios) - (n - 1) / n) <= 1e-9


@pytest.mark.filterwarnings("ignore::smig.structure.ValidityMarginWarning")
@pytest.mark.xfail(
    strict=True,
    reason="the first-pair map of the ideal zero-diagonal matrix is "
    "|g(r)^2|, not the closed-form series: the matrix is not rank one, so "
    "the pointwise ratio varies by orders of magnitude",
)
def test_first_pair_ratio_constant_literal(paper_array, k_real, r_star):
    ideal = structure.ideal_plane_wave_matrix(
        paper_array, k_real, r_star, kind=forward.KIND_ZERO_DIAGONAL
    )
    decomp = imaging.svd(ideal)
    pts = np.array([(x, y) for x in np.linspace(-0.07, 0.07, 7)
                    for y in np.linspace(-0.07, 0.07, 7)])
    ratios = []
    for p in pts:
        w = em.plane_wave_many(p[None], paper_array, k_real)[0] / math.sqrt(paper_array.count)
        pair = abs(
            (w.conj() @ decomp.left_vectors[:, 0])
            * (w.conj() @ decomp.right_vectors[:, 0].conj())
        )
        series = structure.structure_diag(p, paper_array, k_real, r_star)
        if series > 1e-9:
            ratios.append(pair / series)
    assert max(ratios) - min(ratios) <= 1e-6


def test_image_diag_on_ideal_data_peaks_at_one(paper_array, k_real, r_star):
    ideal = structure.ideal_plane_wave_matrix(
        paper_array, k_real, r_star, kind=forward.KIND_ZERO_DIAGONAL, frequency_hz=1e9
    )
    grid = imaging.ImagingGrid(
        r_star[0] - 0.002, r_star[0] + 0.002, r_star[1] - 0.002, r_star[1] + 0.002, 0.002
    )
    image = imaging.image_diag(
        ideal, grid, paper_array, em.ComplexWavenumber(complex(k_real)),
        steering=imaging.STEERING_PLANE_WAVE,
    )
    ix = 1, 1
    assert abs(image.values[ix] - 1.0) <= 1e-6


def test_validity_margin_warning(paper_array, k_real, r_star):
    # Each series warns once, at its caller's line.
    near_antenna = paper_array.positions[0] + np.array([0.003, 0.0])
    for series in (structure.structure_full, structure.structure_diag):
        with pytest.warns(ValidityMarginWarning) as caught:
            series(near_antenna, paper_array, k_real, r_star)
        assert [w.filename for w in caught] == [__file__]


@settings(max_examples=200, deadline=None)
@given(
    count=st.integers(min_value=2, max_value=64),
    radius=st.floats(min_value=0.02, max_value=0.2),
    k_real=st.floats(min_value=10.0, max_value=300.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    points=st.integers(min_value=0, max_value=6),
)
def test_margin_warning_matches_the_brute_force_distance(count, radius, k_real, seed, points):
    # The nearest antenna by polar angle gives the brute-force minimum over
    # every point and antenna: the warning is raised exactly when it is
    # below the margin 2.5 / k.
    array = em.antenna_array(count, radius)
    rng = np.random.default_rng(seed)
    r = rng.uniform(-1.5 * radius, 1.5 * radius, (points, 2))
    if points and rng.random() < 0.5:  # a point near an antenna
        r[0] = array.positions[rng.integers(count)] + rng.normal(0.0, 2.5 / k_real, 2)
    r_star = rng.uniform(-radius, radius, 2)
    both = np.concatenate([r, r_star[None]])
    gaps = both[:, None, :] - array.positions[None, :, :]
    expected = np.hypot(gaps[..., 0], gaps[..., 1]).min() < 2.5 / k_real
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        structure._check_margin(r, array, k_real, r_star)
    assert [w.category for w in caught] == [ValidityMarginWarning] * int(expected)


@pytest.mark.filterwarnings("ignore::smig.structure.ValidityMarginWarning")
def test_batch_points_match_single_points(paper_array, k_real, r_star):
    pts = np.array([(x, y) for x in np.linspace(-0.08, 0.08, 5) for y in (-0.05, 0.0, 0.07)])
    cfg = StructureConfig()
    for fn in (structure.structure_diag, structure.structure_full):
        batch = fn(pts, paper_array, k_real, r_star, cfg)
        assert batch.shape == (len(pts),)
        single = np.array([fn(p, paper_array, k_real, r_star, cfg) for p in pts])
        assert np.abs(batch - single).max() <= 1e-14


def _per_antenna_ring_average(k_real, array, r, r_center, trunc):
    # Reference: the Jacobi-Anger sum at every antenna angle, then the mean.
    delta = np.asarray(r, float) - np.asarray(r_center, float)
    phi = np.arctan2(delta[..., 1], delta[..., 0])
    j0, harmonics = specfun._jacobi_anger_terms(
        k_real * np.hypot(delta[..., 0], delta[..., 1]), array.angles - phi[..., None],
        trunc.max_order)
    return j0 + harmonics.mean(axis=-1)


@pytest.mark.parametrize("count", [2, 3, 16, 32])
@pytest.mark.parametrize("order", ["1", "N-1", "N", "2N+1", "64"])
@pytest.mark.parametrize("factor", [1.0, 2.0])
def test_aliased_ring_average_matches_per_antenna_sum(k_real, r_star, count, order, factor):
    # Only the orders N, 2N, ... survive the ring average; the per-antenna sum
    # over all S orders is the reference, at k and at 2k as structure_diag uses.
    max_order = {"1": 1, "N-1": count - 1, "N": count, "2N+1": 2 * count + 1, "64": 64}[order]
    trunc = SeriesTruncation(max_order, 1e-10)
    array = em.antenna_array(count, 0.09)
    k = factor * k_real
    pts = _VALIDATE_POINTS
    got = structure._ring_average(k, array, pts, r_star, trunc)
    assert got.shape == (len(pts),)
    assert np.abs(got - _per_antenna_ring_average(k, array, pts, r_star, trunc)).max() <= 1e-13
    one = structure._ring_average(k, array, pts[0], r_star, trunc)
    assert np.ndim(one) == 0
    assert abs(one - _per_antenna_ring_average(k, array, pts[0], r_star, trunc)) <= 1e-13
    assert structure._ring_average(k, array, r_star, r_star, trunc) == 1.0


@pytest.mark.parametrize("kind", [forward.KIND_FULL, forward.KIND_ZERO_DIAGONAL])
def test_migration_response_equals_triple_product(paper_array, k_real, r_star, kind):
    # The BLAS product (w S) . w is the bilinear form w* S conj(w) summed
    # term by term.
    rng = np.random.default_rng(7)
    n = paper_array.count
    entries = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if kind == forward.KIND_ZERO_DIAGONAL:
        np.fill_diagonal(entries, 0.0)
    data = forward.ScatteringMatrix(entries, kind, "t", 1e9)
    pts = rng.uniform(-0.08, 0.08, (300, 2))
    w = em.plane_wave_many(pts, paper_array, k_real).conj() / math.sqrt(n)
    ref = np.abs(np.einsum("pi,ij,pj->p", w, data.entries, w))
    got = structure.migration_response(data, paper_array, k_real, pts)
    assert np.all(np.abs(got - ref) <= 1e-13 * ref)
