import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smig import em, forward, imaging, specfun
from smig.errors import ConfigError, DataError, KindError, RankError
from smig.forward import KIND_FULL, ScatteringMatrix
from smig.imaging import ImagingGrid, RankPolicy

from oracle_values import XHALF_J0SQ


def _matrix(entries, kind=KIND_FULL):
    return ScatteringMatrix(np.asarray(entries, dtype=complex), kind, "file", 1.0e9)


def test_zero_diagonal_zeroes(contaminated_fixture):
    out = imaging.zero_diagonal(contaminated_fixture)
    assert np.all(np.diag(out.entries) == 0)
    assert out.kind == forward.KIND_ZERO_DIAGONAL


def test_zero_diagonal_idempotent(contaminated_fixture):
    once = imaging.zero_diagonal(contaminated_fixture)
    twice = imaging.zero_diagonal(once)
    assert np.array_equal(once.entries, twice.entries)


def test_zero_diagonal_contamination_independent(born_fixture):
    a = imaging.zero_diagonal(forward.contaminate_diagonal(born_fixture, 0.0))
    b = imaging.zero_diagonal(forward.contaminate_diagonal(born_fixture, 5.0, seed=3))
    assert np.array_equal(a.entries, b.entries)


def test_svd_identity_spectrum():
    decomp = imaging.svd(_matrix(np.eye(6)))
    assert np.allclose(decomp.singular_values, 1.0)


def test_svd_rank_one_unit_vector():
    rng = np.random.default_rng(0)
    w = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    w /= np.linalg.norm(w)
    decomp = imaging.svd(_matrix(np.outer(w, w)))
    assert abs(decomp.singular_values[0] - 1.0) <= 1e-12
    assert decomp.singular_values[1] <= 1e-12


def test_svd_fixture_spectrum(born_fixture):
    decomp = imaging.svd(born_fixture)
    assert decomp.singular_values[1] / decomp.singular_values[0] <= 1e-10


def test_svd_rejects_non_finite():
    entries = np.ones((3, 3), dtype=complex)
    entries[1, 2] = np.nan
    with pytest.raises(DataError):
        imaging.svd(_matrix(entries))


@settings(max_examples=100)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_svd_result_invariants(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    entries = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    decomp = imaging.svd(_matrix(entries))
    tau, u, v = decomp.singular_values, decomp.left_vectors, decomp.right_vectors
    assert np.all(np.diff(tau) <= 1e-12 * tau[0])
    recon = (u * tau) @ v.conj().T
    assert np.abs(recon - entries).max() <= 1e-10 * tau[0]
    assert np.abs(u.conj().T @ u - np.eye(n)).max() <= 1e-10
    assert np.abs(v.conj().T @ v - np.eye(n)).max() <= 1e-10


def test_select_rank_threshold_counting():
    decomp = imaging.svd(_matrix(np.diag([1.0, 0.5, 0.01])))
    assert imaging.select_rank(decomp, RankPolicy()) == 2


def test_select_rank_forces_at_least_one():
    decomp = imaging.svd(_matrix(np.diag([1.0, 1e-12, 1e-13])))
    assert imaging.select_rank(decomp, RankPolicy()) == 1


def test_select_rank_fixed_mode():
    decomp = imaging.svd(_matrix(np.diag([1.0, 0.5, 0.2])))
    assert imaging.select_rank(decomp, RankPolicy(mode="fixed", fixed_m=3)) == 3
    with pytest.raises(ConfigError):
        imaging.select_rank(decomp, RankPolicy(mode="fixed", fixed_m=7))


def test_select_rank_all_zero():
    decomp = imaging.svd(_matrix(np.zeros((4, 4))))
    with pytest.raises(RankError):
        imaging.select_rank(decomp, RankPolicy())


def test_select_rank_contaminated_fixture(contaminated_fixture):
    decomp = imaging.svd(contaminated_fixture)
    assert imaging.select_rank(decomp, RankPolicy()) >= 3


def test_select_rank_zero_diag_fixture_single(contaminated_fixture):
    # The zero-diagonal remainder of a rank-one matrix has tau2/tau1 >= ~1/(N-1)
    # = 0.067 at N = 16, so the 0.02 threshold alone keeps more than one value
    # (acceptance criterion 4 notes); the matrix kind picks the first pair.
    decomp = imaging.svd(imaging.zero_diagonal(contaminated_fixture))
    tau = decomp.singular_values
    assert np.sum(tau >= RankPolicy().threshold * tau[0]) > 1
    assert decomp.kind == forward.KIND_ZERO_DIAGONAL
    assert imaging.select_rank(decomp, RankPolicy()) == 1


def test_rank_policy_invariants():
    with pytest.raises(ConfigError):
        RankPolicy(threshold=0.0)
    with pytest.raises(ConfigError):
        RankPolicy(mode="fixed", fixed_m=None)
    with pytest.raises(ConfigError):
        RankPolicy(mode="fixed", fixed_m=2.5)
    with pytest.raises(ConfigError):
        RankPolicy(mode="bogus")


def test_whole_number_fields_are_stored_as_int(contaminated_fixture, small_anomaly, paper_array,
                                               paper_medium, paper_k, coarse_grid):
    # A whole-number float count or rank builds the same data and map as the int.
    array = em.AntennaArray(float(paper_array.count), paper_array.radius)
    assert type(array.count) is int and array.count == paper_array.count
    assert np.array_equal(forward.born_smatrix(array, [small_anomaly], paper_medium).entries,
                          forward.born_smatrix(paper_array, [small_anomaly], paper_medium).entries)
    assert np.array_equal(forward.incident_coupling_smatrix(array, paper_medium).entries,
                          forward.incident_coupling_smatrix(paper_array, paper_medium).entries)
    diag = imaging.zero_diagonal(contaminated_fixture)
    assert np.array_equal(imaging.image_diag(diag, coarse_grid, array, paper_k).values,
                          imaging.image_diag(diag, coarse_grid, paper_array, paper_k).values)
    policy = RankPolicy(mode="fixed", fixed_m=2.0)
    assert type(policy.fixed_m) is int
    full = imaging.image_full(contaminated_fixture, coarse_grid, array, paper_k, policy)
    assert full.rank_used == 2


def _steering(points, array, k):
    """Exact unit steering vectors of points (P, 2), and the excluded points.

    The table has no segments, so every distance takes hankel1_0.
    """
    exact = specfun.DistanceTable(k.k, 0.0, 0.0,
                                  np.empty((specfun._TABLE_DEGREE + 1, 0), complex))
    return imaging._steering_block(np.asarray(points, dtype=float), array, k,
                                   imaging.STEERING_HANKEL, exact)


@given(
    rx=st.floats(min_value=-0.07, max_value=0.07),
    ry=st.floats(min_value=-0.07, max_value=0.07),
)
def test_test_vector_unit_norm(paper_array, paper_k, rx, ry):
    w, _ = _steering([(rx, ry)], paper_array, paper_k)
    assert abs(np.linalg.norm(w[0]) - 1.0) <= 1e-12


def test_test_vector_continuity(paper_array, paper_k):
    (a, b), _ = _steering([(0.012, -0.03), (0.012 + 5e-6, -0.03)], paper_array, paper_k)
    angle = math.acos(min(1.0, abs(np.vdot(a, b))))
    assert angle <= 1e-3


def test_test_vector_entries(paper_array, paper_k):
    r = np.array([0.02, -0.014])
    w, _ = _steering([r], paper_array, paper_k)
    raw = np.array([
        em.incident_field(d, r, paper_k) for d in paper_array.positions
    ])
    assert np.abs(w[0] - raw / np.linalg.norm(raw)).max() <= 1e-13


def test_test_vector_at_antenna(paper_array, paper_k):
    # A point on an antenna is excluded, with finite placeholder values.
    on = paper_array.positions[2]
    w, excluded = _steering([on, on + 1e-4], paper_array, paper_k)
    assert excluded.tolist() == [True, False] and np.all(np.isfinite(w))


def test_image_full_self_projection(paper_array, paper_k, coarse_grid):
    r0 = np.array([0.01, 0.03])
    (w,), _ = _steering([r0], paper_array, paper_k)
    s = _matrix(np.outer(w, w))
    image = imaging.image_full(s, coarse_grid, paper_array, paper_k,
                               RankPolicy(mode="fixed", fixed_m=1))
    ix = int(np.argmin(np.abs(coarse_grid.x_axis() - r0[0])))
    iy = int(np.argmin(np.abs(coarse_grid.y_axis() - r0[1])))
    assert abs(image.values[ix, iy] - 1.0) <= 1e-10


def test_image_full_bounded_by_rank(contaminated_fixture, paper_array, paper_k, coarse_grid):
    image = imaging.image_full(contaminated_fixture, coarse_grid, paper_array, paper_k)
    assert image.values.max() <= image.rank_used + 1e-9
    assert np.all(image.values >= 0)


def test_image_full_fixture_argmax(born_fixture, paper_array, paper_k, default_grid, r_star):
    image = imaging.image_full(born_fixture, default_grid, paper_array, paper_k)
    loc, _ = imaging.argmax(image)
    assert np.abs(loc - r_star).max() <= 0.001 + 1e-12


def test_image_is_both_imaging_functions(contaminated_fixture, paper_array, paper_k,
                                         coarse_grid):
    zero_diag = imaging.zero_diagonal(contaminated_fixture)
    for data, wrapped in ((contaminated_fixture, imaging.image_full(
            contaminated_fixture, coarse_grid, paper_array, paper_k)),
            (zero_diag, imaging.image_diag(zero_diag, coarse_grid, paper_array, paper_k))):
        [image] = imaging.image([data], coarse_grid, paper_array, paper_k)
        assert np.array_equal(image.values, wrapped.values)
        assert (image.rank_used, image.matrix_kind) == (wrapped.rank_used, wrapped.matrix_kind)


def test_image_full_kind_check(born_fixture, paper_array, paper_k, coarse_grid):
    with pytest.raises(KindError):
        imaging.image_full(imaging.zero_diagonal(born_fixture), coarse_grid, paper_array, paper_k)


def test_image_diag_kind_check(born_fixture, paper_array, paper_k, coarse_grid):
    with pytest.raises(KindError):
        imaging.image_diag(born_fixture, coarse_grid, paper_array, paper_k)


def test_image_diag_range_and_peak(born_fixture, paper_array, paper_k, default_grid, r_star):
    image = imaging.image_diag(
        imaging.zero_diagonal(born_fixture), default_grid, paper_array, paper_k
    )
    assert np.all(image.values >= 0)
    assert image.values.max() <= 1.0 + 1e-12
    loc, peak = imaging.argmax(image)
    assert np.abs(loc - r_star).max() <= 0.001 + 1e-12
    assert peak >= 0.9


@settings(max_examples=100, deadline=None)
@given(
    mag=st.floats(min_value=1e-6, max_value=1e6),
    phase=st.floats(min_value=-math.pi, max_value=math.pi),
)
def test_scaling_invariance(born_fixture, paper_array, paper_k, mag, phase):
    grid = ImagingGrid(-0.06, 0.06, -0.06, 0.06, 0.02)
    c = mag * complex(math.cos(phase), math.sin(phase))
    base = imaging.zero_diagonal(born_fixture)
    scaled = ScatteringMatrix(c * base.entries, base.kind, base.provenance, base.frequency_hz)
    a = imaging.image_diag(base, grid, paper_array, paper_k)
    b = imaging.image_diag(scaled, grid, paper_array, paper_k)
    assert np.abs(a.values - b.values).max() <= 1e-10


def test_axis_does_not_overshoot_bound(default_grid):
    assert default_grid.shape == (201, 201)
    xs = ImagingGrid(-0.1, 0.1, -0.1, 0.1, 0.003).x_axis()
    assert xs[-1] <= 0.1
    assert xs.size == 67


@settings(max_examples=200)
@given(
    lo=st.floats(min_value=-1.0, max_value=1.0),
    span=st.floats(min_value=1e-3, max_value=1.0),
    steps=st.floats(min_value=1.0, max_value=300.0),
)
def test_axes_stay_inside_bounds(lo, span, steps):
    hi = lo + span
    step = span / steps
    grid = ImagingGrid(lo, hi, lo - 1.0, hi - 1.0, step)
    for axis, a_min, a_max in ((grid.x_axis(), lo, hi), (grid.y_axis(), lo - 1.0, hi - 1.0)):
        assert axis[0] == a_min
        assert np.all((axis >= a_min) & (axis <= a_max))
        assert a_max - axis[-1] < step


def test_argmax_constant_map_tie_break(coarse_grid):
    image = imaging.ImageMap(coarse_grid, np.ones(coarse_grid.shape), 1, 1e9, "full")
    loc, value = imaging.argmax(image)
    assert value == 1.0
    assert loc[0] == coarse_grid.x_axis()[0]
    assert loc[1] == coarse_grid.y_axis()[0]


def test_argmax_gaussian_bump(default_grid):
    xs = default_grid.x_axis()
    ys = default_grid.y_axis()
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    center = (0.017, -0.041)
    values = np.exp(-((gx - center[0]) ** 2 + (gy - center[1]) ** 2) / 2e-4)
    image = imaging.ImageMap(default_grid, values, 1, 1e9, "full")
    loc, _ = imaging.argmax(image)
    assert np.abs(loc - np.array(center)).max() <= 0.001 / 2


def _j0_squared_map(grid, k_real, center):
    from smig.specfun import bessel_j

    xs, ys = grid.x_axis(), grid.y_axis()
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    rr = np.hypot(gx - center[0], gy - center[1])
    values = np.abs(bessel_j(0, k_real * rr)) ** 2
    return imaging.ImageMap(grid, values, 1, 1e9, "full")


def test_fwhm_against_analytic_half_max(default_grid):
    k_real = 93.729038762256
    image = _j0_squared_map(default_grid, k_real, (0.01, 0.03))
    res = imaging.fwhm(image, np.array([0.01, 0.03]))
    expected = 2.0 * XHALF_J0SQ / k_real
    assert abs(res.width - expected) <= default_grid.step
    assert not res.touches_boundary


def test_fwhm_scale_invariant(default_grid):
    image = _j0_squared_map(default_grid, 93.729, (0.01, 0.03))
    scaled = imaging.ImageMap(default_grid, 7.5 * image.values, 1, 1e9, "full")
    a = imaging.fwhm(image, np.array([0.01, 0.03]))
    b = imaging.fwhm(scaled, np.array([0.01, 0.03]))
    assert a.width == b.width


def test_fwhm_boundary_flag(default_grid):
    image = _j0_squared_map(default_grid, 5.0, (0.0, 0.0))
    res = imaging.fwhm(image, np.array([0.0, 0.0]))
    assert res.touches_boundary


def test_half_max_near_matches_inline_formulas(
    paper_array, paper_k, paper_medium, extended_anomaly, contaminated_fixture, coarse_grid,
    r_star,
):
    lam = em.wavelength(paper_k)
    gx, gy = np.meshgrid(coarse_grid.x_axis(), coarse_grid.y_axis(), indexing="ij")
    # Criterion 7's coverage: half-max points within lambda/2 of the disc.
    data = forward.exact_disc_smatrix(paper_array, extended_anomaly, paper_medium)
    image = imaging.image_diag(imaging.zero_diagonal(data), coarse_grid, paper_array, paper_k)
    center, rho = extended_anomaly.center, extended_anomaly.radius
    dist_from_disc = np.maximum(0.0, np.hypot(gx - center[0], gy - center[1]) - rho)
    hot = image.values >= 0.5 * image.values.max()
    near, n_hot = imaging.half_max_near(image, center, rho, lam / 2.0)
    assert (near, n_hot) == (np.sum(hot & (dist_from_disc <= lam / 2.0)), np.sum(hot))
    # Criterion 5's side lobes: at radius 0, the hot points beyond lambda/2.
    full = imaging.image_full(contaminated_fixture, coarse_grid, paper_array, paper_k)
    near, n_hot = imaging.half_max_near(full, r_star, 0.0, lam / 2.0)
    hot = full.values >= 0.5 * full.values.max()
    outside = np.hypot(gx - r_star[0], gy - r_star[1]) > lam / 2.0
    assert n_hot - near == np.sum(hot & outside) > 0
    assert near > 0


def test_fwhm_frequency_trend(paper_array, small_anomaly):
    grid = ImagingGrid(-0.1, 0.1, -0.1, 0.1, 0.002)
    widths = {}
    for f in (0.8e9, 1.2e9):
        medium = em.MediumParams.from_relative(20.0, 0.2, f)
        k = em.wavenumber(medium)
        data = imaging.zero_diagonal(forward.born_smatrix(paper_array, [small_anomaly], medium))
        image = imaging.image_diag(data, grid, paper_array, k)
        loc, _ = imaging.argmax(image)
        widths[f] = imaging.fwhm(image, loc).width
    assert widths[1.2e9] < widths[0.8e9]


def test_full_and_diag_pipelines_agree_on_shared_pair(
    born_fixture, paper_array, paper_k, coarse_grid
):
    # Rank-one truncation of the zero-diagonal data pushed through the
    # M=1 full-matrix path must reproduce the first-pair map exactly.
    data = imaging.zero_diagonal(born_fixture)
    decomp = imaging.svd(data)
    rank1 = ScatteringMatrix(
        decomp.singular_values[0]
        * np.outer(decomp.left_vectors[:, 0], decomp.right_vectors[:, 0].conj()),
        KIND_FULL, "file", data.frequency_hz,
    )
    a = imaging.image_diag(data, coarse_grid, paper_array, paper_k)
    b = imaging.image_full(rank1, coarse_grid, paper_array, paper_k,
                           RankPolicy(mode="fixed", fixed_m=1))
    assert np.abs(a.values - b.values).max() <= 1e-8


def test_rotation_invariance_of_map(paper_medium):
    # N = 4 array: quarter-turn rotation maps the antenna set and a
    # symmetric grid onto themselves.
    array = em.antenna_array(4, 0.09)
    k = em.wavenumber(paper_medium)
    grid = ImagingGrid(-0.06, 0.06, -0.06, 0.06, 0.004)
    anomaly = forward.Anomaly.from_relative((0.013, 0.021), 0.008, 45.0, 0.8)
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])  # +pi/2
    rotated = forward.Anomaly(
        rot @ anomaly.center, anomaly.radius, anomaly.eps_star, anomaly.sigma_star
    )
    base = imaging.image_diag(
        imaging.zero_diagonal(forward.born_smatrix(array, [anomaly], paper_medium)),
        grid, array, k,
    )
    turned = imaging.image_diag(
        imaging.zero_diagonal(forward.born_smatrix(array, [rotated], paper_medium)),
        grid, array, k,
    )
    n = grid.shape[0]
    # (x, y) -> (-y, x): values_turned[n-1-j, i] == values_base[i, j]
    remapped = np.empty_like(base.values)
    for i in range(n):
        for j in range(n):
            remapped[i, j] = turned.values[n - 1 - j, i]
    assert np.abs(remapped - base.values).max() <= 1e-10


def test_grid_invariants():
    with pytest.raises(ConfigError):
        ImagingGrid(-0.1, 0.1, -0.1, 0.1, 0.0)
    with pytest.raises(ConfigError):
        ImagingGrid(0.1, -0.1, -0.1, 0.1, 0.001)


@pytest.mark.parametrize("bounds, step", [
    ((math.nan, 0.1, -0.1, 0.1), 0.01),
    ((-0.1, 0.1, -0.1, math.inf), 0.01),
    ((-math.inf, 0.1, -0.1, 0.1), 0.01),
    ((-0.1, 0.1, -0.1, 0.1), math.inf),
    ((-0.1, 0.1, -0.1, 0.1), math.nan),
    ((-1e308, 1e308, -0.1, 0.1), 0.01),
])
def test_grid_rejects_non_finite(bounds, step):
    with pytest.raises(ConfigError):
        ImagingGrid(*bounds, step)


def test_grid_point_budget():
    # 2047^2 points fit the 2^22 budget, 2049^2 do not; neither allocates.
    assert ImagingGrid(-0.1, 0.1, -0.1, 0.1, 0.2 / 2046).shape == (2047, 2047)
    with pytest.raises(ConfigError, match="budget"):
        ImagingGrid(-0.1, 0.1, -0.1, 0.1, 0.2 / 2048)
    with pytest.raises(ConfigError, match="budget"):
        ImagingGrid(-0.1, 0.1, -0.1, 0.1, 1e-6)


def test_image_map_rejects_nan(coarse_grid):
    bad = np.ones(coarse_grid.shape)
    bad[1, 2] = np.nan
    with pytest.raises(ConfigError):
        imaging.ImageMap(coarse_grid, bad, 1, 1e9, "full")


def test_image_map_invariants(coarse_grid):
    with pytest.raises(ConfigError):
        imaging.ImageMap(coarse_grid, np.ones((3, 3)), 1, 1e9, "full")
    bad = np.ones(coarse_grid.shape)
    bad[0, 0] = -0.5
    with pytest.raises(ConfigError):
        imaging.ImageMap(coarse_grid, bad, 1, 1e9, "full")


def test_grid_axes_count(default_grid):
    assert default_grid.shape == (201, 201)


def _on_antenna(points, array):
    """Grid points that coincide with an antenna within the exclusion tolerance."""
    dist = np.hypot(*(points[:, None, :] - array.positions[None, :, :]).transpose(2, 0, 1))
    return (dist <= em.COINCIDENCE_RTOL * array.radius).any(axis=1)


@pytest.mark.parametrize("count", [4, 8, 16, 32])
def test_on_grid_antennas_are_excluded(count, small_anomaly, paper_medium, paper_k, default_grid):
    # Rounding leaves three of the four axis antennas ~1e-17 m off their grid
    # point; they must still be zeroed, and the full-kind map must not peak there.
    array = em.antenna_array(count, 0.09)
    data = forward.contaminate_diagonal(
        forward.born_smatrix(array, [small_anomaly], paper_medium), 5.0, mode="random", seed=7
    )
    image = imaging.image_full(data, default_grid, array, paper_k)
    points = imaging.lattice(default_grid.x_axis(), default_grid.y_axis())
    on_antenna = _on_antenna(points, array).reshape(default_grid.shape)
    assert np.count_nonzero(on_antenna) == 4
    assert np.all(image.values[on_antenna] == 0.0)
    flat = int(np.argmax(image.values))
    assert not on_antenna.ravel()[flat]


@settings(max_examples=25, deadline=None)
@given(
    count=st.integers(min_value=2, max_value=24),
    radius_steps=st.integers(min_value=2, max_value=30),
    half_steps=st.integers(min_value=1, max_value=20),
    step=st.floats(min_value=1e-3, max_value=1e-2),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_map_values_finite_nonnegative_and_zero_on_antennas(
    paper_k, count, radius_steps, half_steps, step, seed
):
    # The radius is a whole number of steps, so for count % 4 == 0 the
    # antenna at angle 0 lies on the grid whenever the grid reaches it.
    array = em.antenna_array(count, radius_steps * step)
    half = half_steps * step
    grid = ImagingGrid(-half, half, -half, half, step)
    rng = np.random.default_rng(seed)
    entries = rng.normal(size=(count, count)) + 1j * rng.normal(size=(count, count))
    points = imaging.lattice(grid.x_axis(), grid.y_axis())
    on_antenna = _on_antenna(points, array).reshape(grid.shape)
    for image in (
        imaging.image_full(_matrix(entries), grid, array, paper_k),
        imaging.image_diag(imaging.zero_diagonal(_matrix(entries)), grid, array, paper_k),
    ):
        assert np.all(np.isfinite(image.values))
        assert np.all(image.values >= 0)
        assert np.all(image.values[on_antenna] == 0.0)


def _reference_maps(matrices, grid, array, k, policy=RankPolicy(),
                    steering=imaging.STEERING_HANKEL):
    """Brute-force (values, rank) of each matrix's map: the reference for imaging.image.

    Exact steering at every grid point in one batch (hankel1_0, or
    em.plane_wave_many), with no table, no symmetry and no chunks; each map
    adds its singular pairs one at a time.  Hankel steering is singular on
    an antenna, so those rows are zero; plane waves are finite there and
    kept.  The field's constant -i/4 drops out of the map's modulus.
    """
    points = imaging.lattice(grid.x_axis(), grid.y_axis())
    if steering == imaging.STEERING_HANKEL:
        on = _on_antenna(points, array)
        dist = np.hypot(*(points[~on, None, :] - array.positions).transpose(2, 0, 1))
        w = np.zeros((len(points), array.count), dtype=complex)
        w[~on] = specfun.hankel1_0(k.k * dist)
    else:
        w = em.plane_wave_many(points, array, k.k)
    norm = np.linalg.norm(w, axis=1, keepdims=True)
    w = w.conj() / np.where(norm > 0.0, norm, 1.0)
    out = []
    for s_matrix in matrices:
        u, tau, vh = np.linalg.svd(s_matrix.entries)
        if s_matrix.kind == forward.KIND_ZERO_DIAGONAL:
            rank = 1
        elif policy.mode == "fixed":
            rank = policy.fixed_m
        else:
            rank = int(np.sum(tau >= policy.threshold * tau[0]))
        acc = np.zeros(len(points), dtype=complex)
        for m in range(rank):
            acc += (w @ u[:, m]) * (w @ vh[m])
        out.append((np.abs(acc).reshape(grid.shape), rank))
    return out


@pytest.mark.parametrize("grid, lo_kd", [
    # Surrounds the array, 4 antennas on it: the table starts at the floor.
    (ImagingGrid(-0.1, 0.1, -0.1, 0.1, 0.002), specfun._TABLE_FLOOR),
    # Off to one side: the nearest antenna, clamped into the rectangle, sets lo.
    (ImagingGrid(0.1, 0.2, -0.2, -0.1, 0.0025), 4.85),
], ids=["on_grid_antennas", "offset"])
def test_map_table_matches_test_vector_projection(contaminated_fixture, paper_array, paper_k,
                                                  grid, lo_kd):
    # One table per map serves every chunk; each value matches the reference
    # map to 1e-12 of itself.
    table = imaging._hankel_table(imaging._orbits(grid, paper_array), paper_array, paper_k)
    assert table.coef.shape[1] > 0 and abs(paper_k.k) * table.lo >= lo_kd
    zero_diag = imaging.zero_diagonal(contaminated_fixture)
    policy = RankPolicy(mode="fixed", fixed_m=3)
    refs = _reference_maps([zero_diag, contaminated_fixture], grid, paper_array, paper_k, policy)
    for image, (ref, m) in zip((
        imaging.image_diag(zero_diag, grid, paper_array, paper_k),
        imaging.image_full(contaminated_fixture, grid, paper_array, paper_k, policy),
    ), refs):
        assert image.rank_used == m
        assert np.all(np.abs(image.values - ref) <= 1e-12 * ref)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    count=st.integers(min_value=2, max_value=40),
    step=st.floats(min_value=2e-3, max_value=1e-2),
    radius_steps=st.integers(min_value=2, max_value=30),
    half=st.tuples(st.integers(min_value=1, max_value=15), st.integers(min_value=1, max_value=15)),
    square=st.booleans(),
    offset=st.one_of(st.just((0.0, 0.0)), st.tuples(st.floats(min_value=-5.0, max_value=5.0),
                                                    st.floats(min_value=-5.0, max_value=5.0))),
    rest=st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=0.95)),
    steering=st.sampled_from([imaging.STEERING_HANKEL, imaging.STEERING_PLANE_WAVE]),
    lossless=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
# The 0.005 m grid around the Table-1 ring: 231 swept points, about one
# distance per table node.
@example(count=16, step=0.005, radius_steps=18, half=(20, 20), square=True, offset=(0.0, 0.0),
         rest=0.0, steering=imaging.STEERING_HANKEL, lossless=False, seed=0)
def test_map_matches_the_reference_map(paper_medium, count, step, radius_steps, half, square,
                                       offset, rest, steering, lossless, seed):
    # Grids centred or offset by whole or fractional steps, their upper
    # bounds a whole number of steps from the lower or `rest` of a step past
    # it; the ring a whole number of steps in radius, so for count % 4 == 0 a
    # centred grid that reaches it holds four antennas.  Both kinds image in
    # one sweep; each map matches the reference to 1e-12 of its maximum.
    hx, hy = (half[0], half[0]) if square else half
    ox, oy = offset
    grid = ImagingGrid((ox - hx) * step, (ox + hx + rest) * step,
                       (oy - hy) * step, (oy + hy + rest) * step, step)
    array = em.antenna_array(count, radius_steps * step)
    k = (em.lossless_wavenumber if lossless else em.wavenumber)(paper_medium)
    rng = np.random.default_rng(seed)
    full = _matrix(rng.normal(size=(count, count)) + 1j * rng.normal(size=(count, count)))
    matrices = [full, imaging.zero_diagonal(full)]
    maps = imaging.image(matrices, grid, array, k, steering=steering)
    for image, (ref, rank) in zip(maps, _reference_maps(matrices, grid, array, k,
                                                        steering=steering)):
        assert image.rank_used == rank
        assert np.all(np.abs(image.values - ref) <= 1e-12 * ref.max())
        assert np.array_equal(image.values == 0.0, ref == 0.0)


def test_sweep_below_the_table_floor(paper_k):
    # A 1 mm ring: every distance of the +-1.5 mm grid lies below the
    # table's floor, so the table has no segments and every value is exact.
    array = em.antenna_array(8, 0.001)
    grid = ImagingGrid(-0.0015, 0.0015, -0.0015, 0.0015, 0.00025)
    table = imaging._hankel_table(imaging._orbits(grid, array), array, paper_k)
    assert table.coef.shape[1] == 0
    rng = np.random.default_rng(11)
    full = _matrix(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    matrices = [full, imaging.zero_diagonal(full)]
    on_antenna = _on_antenna(imaging.lattice(grid.x_axis(), grid.y_axis()), array)
    assert np.count_nonzero(on_antenna) == 4
    for image, (ref, rank) in zip(imaging.image(matrices, grid, array, paper_k),
                                  _reference_maps(matrices, grid, array, paper_k)):
        assert image.rank_used == rank
        assert np.all(np.abs(image.values - ref) <= 1e-12 * ref.max())
        assert np.array_equal(image.values == 0.0, on_antenna.reshape(grid.shape))


def test_one_table_per_map(monkeypatch, contaminated_fixture, paper_array, paper_k):
    builds = []
    build = specfun.hankel1_0_table

    def counted(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(specfun, "hankel1_0_table", counted)
    grid = ImagingGrid(-0.1, 0.1, -0.1, 0.1, 0.001)
    sweep = imaging._orbits(grid, paper_array).representatives()[0].size * paper_array.count
    assert sweep > 3 * imaging._CHUNK_DISTANCES  # several chunks
    imaging.image_diag(imaging.zero_diagonal(contaminated_fixture), grid, paper_array, paper_k)
    assert len(builds) == 1
    imaging.image_full(contaminated_fixture, grid, paper_array, paper_k)
    assert len(builds) == 2


@pytest.mark.parametrize("split", [1, 2])
def test_table1_map_evaluates_each_below_floor_distance_once(monkeypatch, contaminated_fixture,
                                                            paper_array, paper_k, default_grid,
                                                            split):
    # The table's build makes one hankel1_sequence call, over its 430 segment
    # centres.  Every hankel1_0 call is a chunk's below-floor distances, and
    # together they hold each below-floor distance of the 5,151 representative
    # points once, at the chunk budget and at half of it; the distance of the
    # point on an antenna is replaced before the table sees it.
    orbits = imaging._orbits(default_grid, paper_array)
    table = imaging._hankel_table(orbits, paper_array, paper_k)
    i, j = orbits.representatives()
    pos = paper_array.positions
    d = np.hypot(orbits.xs[i, None] - pos[:, 0], orbits.ys[j, None] - pos[:, 1])
    coincident = d <= em.COINCIDENCE_RTOL * paper_array.radius
    below = int(np.sum((d < table.lo) & ~coincident))
    calls, sequences = [], []
    exact, sequence = specfun.hankel1_0, specfun.hankel1_sequence

    def counted(z):
        calls.append((np.size(z), np.abs(z).max()))
        return exact(z)

    def counted_sequence(z, s_max):
        sequences.append((np.size(z), s_max))
        return sequence(z, s_max)

    monkeypatch.setattr(specfun, "hankel1_0", counted)
    monkeypatch.setattr(specfun, "hankel1_sequence", counted_sequence)
    monkeypatch.setattr(imaging, "_CHUNK_DISTANCES", imaging._CHUNK_DISTANCES // split)
    imaging.image_diag(imaging.zero_diagonal(contaminated_fixture), default_grid, paper_array,
                       paper_k)
    assert sequences[0] == (table.coef.shape[1], specfun._GRAF_ORDERS) == (430, 16)
    assert all(s_max == 0 for _, s_max in sequences[1:])  # hankel1_0's own
    assert all(top < specfun._TABLE_FLOOR for _, top in calls)
    assert sum(size for size, _ in calls) == below == 120


def _traced_peak(fn):
    """The peak of tracemalloc's traced memory over one call of fn, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_table1_table_build_holds_no_node_batch(paper_array, paper_k, default_grid):
    # Node values from the 430 segment centres by the addition theorem take
    # 0.74 MiB; one Miller batch over the 3,440 nodes took 4.14 MiB.
    orbits = imaging._orbits(default_grid, paper_array)
    assert _traced_peak(lambda: imaging._hankel_table(orbits, paper_array, paper_k)) < 1.5


def test_table1_map_memory(contaminated_fixture, paper_array, paper_k, default_grid):
    # The Table-1 zero-diagonal map peaks at 3.03 MiB traced: the table and
    # the sweep's two projection buffers, then one chunk's steering block and
    # its in-place Clenshaw buffers.  A node batch, or two chunks' blocks
    # held at once, took it to 4.21 MiB.
    matrices = [imaging.zero_diagonal(contaminated_fixture)]
    imaging.image(matrices, default_grid, paper_array, paper_k)
    peak = _traced_peak(lambda: imaging.image(matrices, default_grid, paper_array, paper_k))
    assert peak < 3.5


def test_batched_maps_match_their_one_matrix_maps(monkeypatch, contaminated_fixture,
                                                   paper_array, paper_k, coarse_grid):
    # Full-rank and rank-1 matrices stand side by side in one stack of
    # singular vectors; every map matches its own sweep, from one table for
    # the batch.
    zero_diag = imaging.zero_diagonal(contaminated_fixture)
    noisy = [forward.add_noise(zero_diag, 20.0, seed=seed) for seed in range(20)]
    batch = [contaminated_fixture, zero_diag, *noisy, contaminated_fixture]
    single = [imaging.image([s], coarse_grid, paper_array, paper_k)[0] for s in batch]
    builds = []
    build = specfun.hankel1_0_table
    monkeypatch.setattr(specfun, "hankel1_0_table", lambda *args: builds.append(1) or build(*args))
    maps = imaging.image(batch, coarse_grid, paper_array, paper_k)
    assert len(builds) == 1 and len(maps) == len(batch)
    assert single[0].rank_used == paper_array.count
    for got, ref in zip(maps, single):
        assert (got.rank_used, got.matrix_kind) == (ref.rank_used, ref.matrix_kind)
        assert np.all(np.abs(got.values - ref.values) <= 1e-14)
    assert imaging.image([], coarse_grid, paper_array, paper_k) == []


def test_image_rejects_a_matrix_of_another_size(born_fixture, coarse_grid, paper_k):
    with pytest.raises(DataError, match="16 x 16 matrix .* 8 antennas"):
        imaging.image([born_fixture], coarse_grid, em.antenna_array(8, 0.09), paper_k)


def test_sweep_chunks_keep_the_distance_budget(monkeypatch, small_anomaly, paper_medium, paper_k,
                                               paper_array, contaminated_fixture, default_grid,
                                               coarse_grid):
    # The chunk size follows the antenna count: at 64 antennas a chunk of
    # whole grid rows would hold four times the distances of the 16-antenna
    # default.
    array = em.antenna_array(64, 0.09)
    data = imaging.zero_diagonal(forward.born_smatrix(array, [small_anomaly], paper_medium))
    chunks = []
    many = em.incident_field_many

    def counted(points, positions, *args, **kwargs):
        chunks.append(len(points) * len(positions))
        return many(points, positions, *args, **kwargs)

    monkeypatch.setattr(em, "incident_field_many", counted)
    imaging.image_diag(data, default_grid, array, paper_k)
    # The grid and the ring share all 8 symmetries of the square: the sweep
    # sees one point per orbit, 101 * 102 / 2 of the 201^2.
    assert sum(chunks) == 5151 * array.count
    assert max(chunks) <= imaging._CHUNK_DISTANCES
    # Without a symmetry every grid point is swept.
    chunks.clear()
    asymmetric = ImagingGrid(-0.1, 0.098, -0.1, 0.098, 0.001)
    imaging.image_diag(data, asymmetric, array, paper_k)
    nx, ny = asymmetric.shape
    assert sum(chunks) == nx * ny * array.count
    assert max(chunks) <= imaging._CHUNK_DISTANCES
    # A batch whose ranks sum past the antenna count (16 + 1 + 20 * 1 = 37)
    # takes chunks of fewer points, so that its projections per symmetry
    # stay within the budget too.
    zero_diag = imaging.zero_diagonal(contaminated_fixture)
    batch = [contaminated_fixture, zero_diag,
             *(forward.add_noise(zero_diag, 20.0, seed=seed) for seed in range(20))]
    single = [imaging.image([s], coarse_grid, paper_array, paper_k)[0] for s in batch]
    chunks.clear()
    maps = imaging.image(batch, default_grid, paper_array, paper_k)
    assert sum(m.rank_used for m in maps) == 37
    count = paper_array.count
    assert imaging._CHUNK_DISTANCES // 37 == 695
    assert sum(chunks) == 5151 * count and max(chunks) <= 695 * count
    # At a budget of one point's projections the chunks keep their floor:
    # no chunk of one point, and each map matches its one-matrix map.
    monkeypatch.setattr(imaging, "_CHUNK_DISTANCES", 37)
    chunks.clear()
    maps = imaging.image(batch, coarse_grid, paper_array, paper_k)
    assert sum(chunks) == 231 * count and min(chunks) >= 2 * count
    for got, ref in zip(maps, single):
        assert np.all(np.abs(got.values - ref.values) <= 1e-14)


@pytest.mark.parametrize("kind, step", [
    ("zero_diagonal", 0.001),
    ("full_rank_3", 0.001),
    ("zero_diagonal", 0.0005),
    ("zero_diagonal", "0.001_half_0.201"),
])
def test_map_does_not_depend_on_the_chunk_budget(monkeypatch, contaminated_fixture, paper_array,
                                                 paper_k, kind, step):
    # The budget, half of it, and a budget whose chunks would leave the
    # sweep's last point a chunk of its own: each one ends chunks inside rows
    # of the domain (i <= j), and the maps are bit for bit the same.
    half = 0.1
    if step == "0.001_half_0.201":
        step, half = 0.001, 0.201
    grid = ImagingGrid(-half, half, -half, half, step)
    if kind == "zero_diagonal":
        def image():
            return imaging.image_diag(imaging.zero_diagonal(contaminated_fixture), grid,
                                      paper_array, paper_k)
    else:
        def image():
            return imaging.image_full(contaminated_fixture, grid, paper_array, paper_k,
                                      RankPolicy(mode="fixed", fixed_m=3))
    orbits = imaging._orbits(grid, paper_array)
    i, _ = orbits.representatives()
    row_starts = set(np.flatnonzero(np.diff(i)) + 1)
    budget, count = imaging._CHUNK_DISTANCES, paper_array.count
    lone = max(b for b in range(2, budget // count + 1) if (i.size - 1) % b == 0)
    assert len(orbits.elements) == 8 and i.size % lone == 1
    maps = []
    for distances in (budget, budget // 2, lone * count):
        assert not set(range(0, i.size, distances // count)) <= row_starts | {0}
        monkeypatch.setattr(imaging, "_CHUNK_DISTANCES", distances)
        maps.append(image().values)
    assert np.array_equal(maps[0], maps[1]) and np.array_equal(maps[0], maps[2])


def _identity_symmetry(monkeypatch):
    """Forces the sweep over every grid point, the reference for the symmetric sweep."""
    monkeypatch.setattr(imaging, "_symmetries",
                        lambda xs, ys, array: [(False, False, False, np.arange(array.count))])


def _zero_diagonal_data(count, anomaly, medium):
    return imaging.zero_diagonal(forward.born_smatrix(em.antenna_array(count, 0.09), [anomaly],
                                                      medium))


@pytest.mark.parametrize("case, elements", [
    ("defaults", 8), ("count_15", 2), ("count_18", 4), ("x_min", 2), ("full_rank_16", 8),
    ("plane_wave", 8), ("lossless", 8),
    ("on_grid_4", 8), ("on_grid_8", 8), ("on_grid_16", 8), ("on_grid_32", 8),
])
def test_symmetric_sweep_matches_the_reference_sweep(monkeypatch, case, elements,
                                                     contaminated_fixture, small_anomaly,
                                                     paper_medium, paper_array, paper_k,
                                                     default_grid):
    grid, array, k = default_grid, paper_array, paper_k
    data, kwargs = imaging.zero_diagonal(contaminated_fixture), {}
    if case.startswith("count_"):
        array = em.antenna_array(int(case[6:]), 0.09)
        data = _zero_diagonal_data(array.count, small_anomaly, paper_medium)
    elif case == "x_min":
        grid = ImagingGrid(-0.08, 0.1, -0.1, 0.1, 0.001)
    elif case == "full_rank_16":
        data = contaminated_fixture
    elif case == "plane_wave":
        kwargs = {"steering": imaging.STEERING_PLANE_WAVE}
    elif case == "lossless":
        k = em.lossless_wavenumber(paper_medium)
    elif case.startswith("on_grid_"):
        array = em.antenna_array(int(case[8:]), 0.09)
        data = forward.contaminate_diagonal(
            forward.born_smatrix(array, [small_anomaly], paper_medium), 5.0, mode="random", seed=7)
    assert len(imaging._symmetries(grid.x_axis(), grid.y_axis(), array)) == elements
    got = imaging.image([data], grid, array, k, **kwargs)[0]
    _identity_symmetry(monkeypatch)
    ref = imaging.image([data], grid, array, k, **kwargs)[0]
    assert got.rank_used == ref.rank_used
    assert case != "full_rank_16" or got.rank_used == 16
    assert np.all(np.abs(got.values - ref.values) <= 1e-13 * ref.values.max())
    assert np.array_equal(got.values == 0.0, ref.values == 0.0)
    assert not case.startswith("on_grid_") or np.count_nonzero(ref.values == 0.0) == 4


def test_sweep_without_symmetry_is_the_reference_sweep(monkeypatch, contaminated_fixture,
                                                       paper_array, paper_k, default_grid):
    # A grid whose axes end at 0.098, and a ring turned by 1e-12 rad, share no
    # symmetry with the other: the sweep is the reference sweep, bit for bit.
    turned = em.antenna_array(16, 0.09)
    angles = turned.angles + 1e-12
    object.__setattr__(turned, "positions", 0.09 * np.stack([np.cos(angles), np.sin(angles)], 1))
    data = imaging.zero_diagonal(contaminated_fixture)
    cases = [(ImagingGrid(-0.1, 0.1, -0.1, 0.1, 0.003), paper_array), (default_grid, turned)]
    for grid, array in cases:
        assert len(imaging._symmetries(grid.x_axis(), grid.y_axis(), array)) == 1
    got = [imaging.image_diag(data, grid, array, paper_k).values for grid, array in cases]
    _identity_symmetry(monkeypatch)
    for values, (grid, array) in zip(got, cases):
        assert np.array_equal(values, imaging.image_diag(data, grid, array, paper_k).values)


@pytest.mark.parametrize("count, flips", [(16, 3), (32, 3), (18, 2), (6, 2), (15, 1), (3, 1)])
def test_symmetries_permute_the_ring(count, flips):
    # Odd N: the x flip; N = 2 mod 4: both flips; N = 0 mod 4: all 8.  Each
    # element carries antenna n to antenna perm[n].
    array = em.antenna_array(count, 0.09)
    axis = ImagingGrid(-0.1, 0.1, -0.1, 0.1, 0.001).x_axis()
    elements = imaging._symmetries(axis, axis, array)
    assert len(elements) == {3: 8, 2: 4, 1: 2}[flips]
    assert elements[0][:3] == (False, False, False)
    for swap, flip_x, flip_y, perm in elements:
        moved = array.positions[:, ::-1] if swap else array.positions
        moved = moved * [-1.0 if flip_x else 1.0, -1.0 if flip_y else 1.0]
        assert np.abs(array.positions[perm] - moved).max() <= 1e-15
        assert np.array_equal(np.sort(perm), np.arange(count))


@pytest.mark.parametrize("bounds, count, elements", [
    ((-0.07, 0.07, -0.07, 0.07), 16, 8),  # 15 x 15
    ((-0.075, 0.075, -0.075, 0.075), 16, 8),  # 16 x 16
    ((-0.07, 0.07, -0.08, 0.08), 18, 4),
    ((-0.075, 0.075, -0.08, 0.08), 15, 2),
    ((-0.06, 0.08, -0.08, 0.08), 16, 2),
])
def test_orbit_representatives_cover_the_grid_once(bounds, count, elements):
    # Every grid point is g (i, j) of exactly one representative (i, j), and
    # g (i, j) is the grid point at g (x_i, y_j).
    grid = ImagingGrid(*bounds, 0.01)
    orbits = imaging._orbits(grid, em.antenna_array(count, 0.09))
    assert len(orbits.elements) == elements
    i, j = orbits.representatives()
    ny = grid.shape[1]
    images = orbits.images(i, j)
    orbit_sets = [set(orbit) for orbit in np.array(images).T.tolist()]
    assert sorted(p for orbit in orbit_sets for p in orbit) == list(range(grid.shape[0] * ny))
    pts = imaging.lattice(grid.x_axis(), grid.y_axis())
    for (swap, flip_x, flip_y, _), image in zip(orbits.elements, images):
        moved = pts[i * ny + j][:, ::-1] if swap else pts[i * ny + j]
        moved = moved * [-1.0 if flip_x else 1.0, -1.0 if flip_y else 1.0]
        assert np.abs(pts[image] - moved).max() <= 1e-15
