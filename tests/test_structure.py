import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smig import em, forward, imaging, structure
from smig.errors import ConfigError
from smig.specfun import SeriesTruncation, bessel_j
from smig.structure import StructureConfig, ValidityMarginWarning

from oracle_values import K_LOSSLESS, PSI_SPOT


@pytest.fixture(scope="module")
def k_real():
    return K_LOSSLESS


def test_psi1_vanishes_at_center(paper_array, k_real):
    assert structure.psi1(k_real, paper_array.angles[0], (0.01, 0.03), (0.01, 0.03)) == 0


@given(
    theta=st.floats(min_value=-math.pi, max_value=math.pi),
    dx=st.floats(min_value=-0.08, max_value=0.08),
    dy=st.floats(min_value=-0.08, max_value=0.08),
)
def test_psi1_completes_plane_wave(k_real, theta, dx, dy):
    # Psi1 + J0 is the truncated plane-wave expansion; its oracle is the
    # exponential itself.
    delta = np.hypot(dx, dy)
    phi = math.atan2(dy, dx)
    val = structure.psi1(k_real, theta, (dx, dy), (0.0, 0.0))
    total = val + bessel_j(0, k_real * delta)
    assert abs(total - cmath.exp(1j * k_real * delta * math.cos(theta - phi))) <= 1e-10


def test_psi1_spot_value():
    # k |r - rc| = 8 with theta_n - phi = 0.7; frozen exponential oracle.
    got = structure.psi1(1.0, 0.7, (8.0, 0.0), (0.0, 0.0), SeriesTruncation(40, 1e-12))
    assert abs(got - PSI_SPOT) <= 1e-12


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


@pytest.mark.filterwarnings("ignore::smig.structure.ValidityMarginWarning")
def test_structure_full_artifact_term_raises_value(paper_array, k_real, r_star):
    rm = np.array([-0.04, -0.05])
    cfg = StructureConfig().with_artifacts([rm])
    with_art = structure.structure_full(rm, paper_array, k_real, r_star, cfg)
    without = structure.structure_full(rm, paper_array, k_real, r_star)
    assert with_art > without


def test_structure_full_rejects_artifact_at_center(paper_array, k_real, r_star):
    cfg = StructureConfig().with_artifacts([r_star])
    with pytest.raises(ConfigError):
        structure.structure_full(r_star, paper_array, k_real, r_star, cfg)


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
    r = r_star + np.array([10.0 / k_real, 0.0])
    dev = structure.validate_diag_identity([r], paper_array, k_real, r_star,
                                           SeriesTruncation(5, 1e-10))
    assert dev > 1e-3


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
        w = structure.plane_wave_test_vector(p, paper_array, k_real)
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
    near_antenna = paper_array.positions[0] + np.array([0.003, 0.0])
    with pytest.warns(ValidityMarginWarning):
        structure.structure_diag(near_antenna, paper_array, k_real, r_star)


@pytest.mark.filterwarnings("ignore::smig.structure.ValidityMarginWarning")
def test_batch_points_match_single_points(paper_array, k_real, r_star):
    pts = np.array([(x, y) for x in np.linspace(-0.08, 0.08, 5) for y in (-0.05, 0.0, 0.07)])
    cfg = StructureConfig().with_artifacts([(-0.04, -0.05)])
    for fn in (structure.structure_diag, structure.structure_full):
        batch = fn(pts, paper_array, k_real, r_star, cfg)
        assert batch.shape == (len(pts),)
        single = np.array([fn(p, paper_array, k_real, r_star, cfg) for p in pts])
        assert np.abs(batch - single).max() <= 1e-14
