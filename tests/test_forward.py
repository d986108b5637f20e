import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smig import em, forward
from smig.errors import (
    ConfigError,
    DataError,
    DomainError,
    GeometryError,
    KindError,
    ShapeError,
    TruncationError,
)
from smig.specfun import hankel1_0

from oracle_values import S12_BORN


def test_born_symmetric(born_fixture):
    # FMA inside the outer product leaves last-ulp wiggle, nothing more.
    scale = np.abs(born_fixture.entries).max()
    assert np.abs(born_fixture.entries - born_fixture.entries.T).max() <= 1e-12 * scale


def test_born_rank_one(born_fixture):
    tau = np.linalg.svd(born_fixture.entries, compute_uv=False)
    assert tau[1] / tau[0] <= 1e-10


def test_born_oracle_entry(born_fixture):
    got = born_fixture.entries[0, 1]
    assert abs(got - S12_BORN) / abs(S12_BORN) <= 1e-10


def test_born_zero_conductivity_needs_eps_variant(paper_array, small_anomaly):
    lossless = em.MediumParams.from_relative(20.0, 0.0, 1.0e9)
    with pytest.raises(DomainError):
        forward.born_smatrix(paper_array, [small_anomaly], lossless)
    s = forward.born_smatrix(paper_array, [small_anomaly], lossless, denominator="eps_b")
    assert np.all(np.isfinite(s.entries))


def test_born_coincident_center(paper_array, paper_medium):
    bad = forward.Anomaly.from_relative(paper_array.positions[3], 0.01, 55.0, 1.2)
    with pytest.raises(GeometryError):
        forward.born_smatrix(paper_array, [bad], paper_medium)


@pytest.mark.parametrize("center, radius", [
    ((0.0, -0.085), 0.01),      # antenna 1 at (0, -0.09) inside, off the centre
    ((0.0, -0.08), 0.01),       # antenna 1 on the rim
    ((0.0, 0.0), 0.5),          # every antenna inside
])
@pytest.mark.parametrize("generator", [forward.born_smatrix, forward.exact_disc_smatrix])
def test_antenna_inside_disc_rejected(paper_array, paper_medium, center, radius, generator):
    anomaly = forward.Anomaly.from_relative(center, radius, 55.0, 1.2)
    with pytest.raises(GeometryError):
        generator(paper_array, anomaly, paper_medium)


@pytest.mark.parametrize("snr_db", [math.nan, -math.inf, 1e300, -1e300, 301.0])
def test_noise_snr_outside_range_rejected(born_fixture, snr_db):
    with pytest.raises(ConfigError):
        forward.add_noise(born_fixture, snr_db, seed=1)


def test_noise_without_a_noisy_entry_is_typed():
    # A 1 x 1 zero-diagonal matrix has no entry that can carry noise.
    lone = forward.ScatteringMatrix(np.zeros((1, 1)), forward.KIND_ZERO_DIAGONAL, "t", 1e9)
    with pytest.raises(DataError):
        forward.add_noise(lone, 10.0)


def test_noise_signal_power_overflow_is_typed(born_fixture):
    huge = forward.ScatteringMatrix(born_fixture.entries * 1e300, forward.KIND_FULL, "t", 1e9)
    with pytest.raises(DataError):
        forward.add_noise(huge, 10.0)


@pytest.mark.parametrize("amplitude", [math.nan, math.inf, -1.0])
def test_contamination_amplitude_outside_range_rejected(born_fixture, amplitude):
    with pytest.raises(ConfigError):
        forward.contaminate_diagonal(born_fixture, amplitude)


def test_negative_seed_rejected(born_fixture):
    with pytest.raises(ConfigError):
        forward.contaminate_diagonal(born_fixture, 1.0, mode="random", seed=-1)
    with pytest.raises(ConfigError):
        forward.add_noise(born_fixture, 10.0, seed=-1)


def test_exact_disc_tiny_radius_is_truncation_error(paper_array, paper_medium):
    # H_s(k rho) overflows within the first orders; the series reports it.
    # Every term before the overflow underflowed to 0: no tail bound is claimed.
    for radius in (1e-300, 1e-200):
        tiny = forward.Anomaly.from_relative((0.01, 0.03), radius, 55.0, 1.2)
        with pytest.raises(TruncationError, match="no earlier term was nonzero"):
            forward.exact_disc_smatrix(paper_array, tiny, paper_medium)


def test_born_contrast_doubling_exact(paper_array):
    # Conductivity jumps 0.5 and 1.0 over sigma_b = 0.25 make the contrast
    # bracket double exactly in floating point (scaling by two is exact),
    # so every entry must double exactly too.
    medium = em.MediumParams.from_relative(20.0, 0.25, 1.0e9)
    base = forward.Anomaly(np.array([0.01, 0.03]), 0.01, medium.eps_b, sigma_star=0.75)
    doubled = forward.Anomaly(np.array([0.01, 0.03]), 0.01, medium.eps_b, sigma_star=1.25)
    s1 = forward.born_smatrix(paper_array, [base], medium)
    s2 = forward.born_smatrix(paper_array, [doubled], medium)
    assert np.array_equal(s2.entries, 2.0 * s1.entries)


@settings(max_examples=100, deadline=None)
@given(
    cx=st.floats(min_value=-0.05, max_value=0.05),
    cy=st.floats(min_value=-0.05, max_value=0.05),
    count=st.integers(min_value=3, max_value=24),
)
def test_born_reciprocity_random_geometry(paper_medium, cx, cy, count):
    array = em.antenna_array(count, 0.09)
    anomaly = forward.Anomaly.from_relative((cx, cy), 0.008, 40.0, 0.9)
    s = forward.born_smatrix(array, [anomaly], paper_medium)
    assert np.abs(s.entries - s.entries.T).max() <= 1e-10 * np.abs(s.entries).max()


def test_born_multi_anomaly_rank(paper_array, paper_medium):
    centers = [(0.01, 0.03), (-0.04, -0.02), (0.05, -0.04)]
    for j in (1, 2, 3):
        anomalies = [forward.Anomaly.from_relative(c, 0.008, 45.0, 0.8) for c in centers[:j]]
        s = forward.born_smatrix(paper_array, anomalies, paper_medium)
        tau = np.linalg.svd(s.entries, compute_uv=False)
        assert int(np.sum(tau > 1e-8 * tau[0])) == j


def test_born_rotation_covariance(paper_array, paper_medium, small_anomaly):
    # Rotating the scene by one array step maps the canonical antenna set
    # onto itself with a one-step index shift, so the matrix indices
    # permute cyclically.
    n = paper_array.count
    alpha = -2.0 * math.pi / n
    rot = np.array([[math.cos(alpha), -math.sin(alpha)], [math.sin(alpha), math.cos(alpha)]])
    rotated_anomaly = forward.Anomaly(
        rot @ small_anomaly.center, small_anomaly.radius,
        small_anomaly.eps_star, small_anomaly.sigma_star,
    )
    s = forward.born_smatrix(paper_array, [small_anomaly], paper_medium).entries
    s_rot = forward.born_smatrix(paper_array, [rotated_anomaly], paper_medium).entries
    perm = np.roll(np.arange(n), 1)
    assert np.abs(s_rot - s[np.ix_(perm, perm)]).max() <= 1e-10 * np.abs(s).max()


def test_exact_disc_zero_contrast(paper_array, paper_medium):
    inert = forward.Anomaly(
        np.array([0.01, 0.02]), 0.05, paper_medium.eps_b, paper_medium.sigma_b
    )
    s = forward.exact_disc_smatrix(paper_array, inert, paper_medium)
    assert np.abs(s.entries).max() <= 1e-12


def test_exact_disc_reciprocity(paper_array, extended_anomaly, paper_medium):
    s = forward.exact_disc_smatrix(paper_array, extended_anomaly, paper_medium)
    assert np.abs(s.entries - s.entries.T).max() <= 1e-10 * np.abs(s.entries).max()


def test_exact_disc_matches_born_in_small_weak_limit(paper_array, paper_medium):
    lam = em.wavelength(em.wavenumber(paper_medium))
    anomaly = forward.Anomaly.from_relative((0.01, 0.03), lam / 50.0, 22.0, 0.25)
    s_born = forward.born_smatrix(paper_array, [anomaly], paper_medium)
    s_disc = forward.exact_disc_smatrix(paper_array, anomaly, paper_medium)
    deviation = np.max(np.abs(s_disc.entries - s_born.entries) / np.abs(s_born.entries))
    assert deviation <= 0.10, "achieved deviation %.4f" % deviation


def test_exact_disc_antenna_inside(paper_array, paper_medium):
    huge = forward.Anomaly.from_relative((0.0, 0.0), 0.095, 15.0, 0.5)
    with pytest.raises(GeometryError):
        forward.exact_disc_smatrix(paper_array, huge, paper_medium)


def test_exact_disc_honors_explicit_truncation(paper_array, paper_medium, monkeypatch):
    # The extended disc, and one 0.01 m further out that takes three passes.
    discs = [forward.Anomaly.from_relative(center, 0.05, 15.0, 0.5)
             for center in ((0.01, 0.02), (0.01, 0.03))]
    s1 = [forward.exact_disc_smatrix(paper_array, disc, paper_medium) for disc in discs]
    monkeypatch.setattr(forward, "_DISC_ORDER_MARGIN", 64)
    monkeypatch.setattr(forward, "_DISC_TOL", 1e-12)
    for disc, s in zip(discs, s1):
        s2 = forward.exact_disc_smatrix(paper_array, disc, paper_medium)
        rel = np.abs(s.entries - s2.entries).max() / np.abs(s2.entries).max()
        assert rel <= 1e-8


def test_contaminate_zero_amplitude(born_fixture):
    out = forward.contaminate_diagonal(born_fixture, 0.0, seed=3)
    assert np.array_equal(out.entries, born_fixture.entries)


def test_contaminate_off_diagonal_untouched(contaminated_fixture, born_fixture):
    off = ~np.eye(born_fixture.size, dtype=bool)
    assert np.array_equal(contaminated_fixture.entries[off], born_fixture.entries[off])


def test_contaminate_spectrum_count(contaminated_fixture):
    tau = np.linalg.svd(contaminated_fixture.entries, compute_uv=False)
    assert int(np.sum(tau >= 0.02 * tau[0])) >= 3


def test_contaminate_constant_mode(born_fixture):
    out = forward.contaminate_diagonal(born_fixture, 2.0, mode="constant")
    delta = np.diag(out.entries - born_fixture.entries)
    assert np.allclose(delta, delta[0])
    assert abs(np.angle(delta[0]) - math.pi / 4) <= 1e-12


def test_contaminate_magnitude_rule(born_fixture):
    out = forward.contaminate_diagonal(born_fixture, 5.0, mode="random", seed=1)
    delta = np.diag(out.entries - born_fixture.entries)
    off = born_fixture.entries.copy()
    np.fill_diagonal(off, 0.0)
    assert np.allclose(np.abs(delta), 5.0 * np.abs(off).max(), rtol=1e-12)


def test_contaminate_rejects_zero_diagonal(born_fixture):
    from smig.imaging import zero_diagonal

    with pytest.raises(KindError):
        forward.contaminate_diagonal(zero_diagonal(born_fixture), 1.0)


def test_contaminate_deterministic(born_fixture):
    a = forward.contaminate_diagonal(born_fixture, 5.0, seed=11)
    b = forward.contaminate_diagonal(born_fixture, 5.0, seed=11)
    assert np.array_equal(a.entries, b.entries)


def test_noise_infinite_snr_identity(born_fixture):
    out = forward.add_noise(born_fixture, math.inf, seed=5)
    assert np.array_equal(out.entries, born_fixture.entries)


def test_noise_deterministic(born_fixture):
    a = forward.add_noise(born_fixture, 20.0, seed=7)
    b = forward.add_noise(born_fixture, 20.0, seed=7)
    assert np.array_equal(a.entries, b.entries)


def test_noise_realized_snr(born_fixture):
    out = forward.add_noise(born_fixture, 20.0, seed=9)
    signal = np.sum(np.abs(born_fixture.entries) ** 2)
    noise = np.sum(np.abs(out.entries - born_fixture.entries) ** 2)
    realized = 10.0 * math.log10(signal / noise)
    assert 19.5 <= realized <= 20.5


def test_noise_preserves_structural_zeros(born_fixture):
    from smig.imaging import zero_diagonal

    out = forward.add_noise(zero_diagonal(born_fixture), 10.0, seed=2)
    assert np.all(np.diag(out.entries) == 0)
    assert out.kind == forward.KIND_ZERO_DIAGONAL


def test_subtract_self_is_zero(born_fixture):
    out = forward.subtract(born_fixture, born_fixture)
    assert np.all(out.entries == 0)
    assert out.provenance == "measured_subtracted"


def test_subtract_zero_identity(born_fixture):
    zero = forward.ScatteringMatrix(
        np.zeros_like(born_fixture.entries), forward.KIND_FULL, "file", born_fixture.frequency_hz
    )
    out = forward.subtract(born_fixture, zero)
    assert np.array_equal(out.entries, born_fixture.entries)


def test_subtract_round_trip(born_fixture):
    rng = np.random.default_rng(4)
    inc = forward.ScatteringMatrix(
        rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)),
        forward.KIND_FULL, "file", born_fixture.frequency_hz,
    )
    tot = forward.ScatteringMatrix(
        inc.entries + born_fixture.entries, forward.KIND_FULL, "file", born_fixture.frequency_hz
    )
    back = forward.subtract(tot, inc)
    scale = np.abs(inc.entries).max()
    assert np.abs(back.entries - born_fixture.entries).max() <= 1e-14 * scale


def test_subtract_shape_mismatch(born_fixture, paper_medium):
    small = forward.ScatteringMatrix(np.zeros((4, 4)), forward.KIND_FULL, "file", 1.0e9)
    with pytest.raises(ShapeError):
        forward.subtract(born_fixture, small)


def test_subtract_frequency_mismatch(born_fixture):
    other = forward.ScatteringMatrix(
        born_fixture.entries.copy(), forward.KIND_FULL, "file", 2.0e9
    )
    with pytest.raises(ShapeError):
        forward.subtract(born_fixture, other)


def test_anomaly_invariants():
    with pytest.raises(ConfigError):
        forward.Anomaly(np.array([0.0, 0.0]), -0.01, 1e-11, 0.0)
    with pytest.raises(ConfigError):
        forward.Anomaly(np.array([0.0, 0.0]), 0.01, -1e-11, 0.0)


@pytest.mark.parametrize("center, radius, eps, sigma", [
    ((math.nan, 0.0), 0.01, 1e-10, 0.0),
    ((0.0, math.inf), 0.01, 1e-10, 0.0),
    ((0.0, 0.0), math.nan, 1e-10, 0.0),
    ((0.0, 0.0), math.inf, 1e-10, 0.0),
    ((0.0, 0.0), 0.01, math.inf, 0.0),
    ((0.0, 0.0), 0.01, 1e-10, math.nan),
    ((0.0, 0.0), 0.01, 1e-10, math.inf),
])
def test_anomaly_rejects_non_finite(center, radius, eps, sigma):
    with pytest.raises(ConfigError):
        forward.Anomaly(np.array(center), radius, eps, sigma)


def test_empty_matrix_rejected():
    with pytest.raises(ShapeError):
        forward.ScatteringMatrix(np.zeros((0, 0)), forward.KIND_FULL, "t", 1e9)


def test_zero_diagonal_kind_enforced():
    entries = np.ones((3, 3), dtype=complex)
    with pytest.raises(KindError):
        forward.ScatteringMatrix(entries, forward.KIND_ZERO_DIAGONAL, "file", 1.0)


def test_incident_coupling_matches_pairwise_fields(paper_array, paper_medium):
    s = forward.incident_coupling_smatrix(paper_array, paper_medium).entries
    k = em.wavenumber(paper_medium)
    n = paper_array.count
    for m in range(n):
        for j in range(m + 1, n):
            ref = em.incident_field(paper_array.positions[m], paper_array.positions[j], k)
            assert abs(s[m, j] - ref) <= 1e-13 * abs(ref)
    assert np.array_equal(s, s.T)
    assert np.all(np.diag(s) == 0)


@pytest.mark.parametrize("count", [2, 3, 16, 32, 64])
def test_incident_coupling_bit_equal_to_one_batch_of_all_pairs(paper_array, paper_medium, count):
    # Reference: every pair distance in one hankel1_0 batch.  Evaluating each
    # distinct distance once keeps the batch's largest argument, so the values
    # match bit for bit.
    array = em.antenna_array(count, paper_array.radius)
    s = forward.incident_coupling_smatrix(array, paper_medium).entries
    m, j = np.triu_indices(count, 1)
    dist = np.hypot(*(array.positions[m] - array.positions[j]).T)
    ref = np.zeros((count, count), dtype=complex)
    ref[m, j] = ref[j, m] = -0.25j * hankel1_0(em.wavenumber(paper_medium).k * dist)
    assert np.array_equal(s.view(np.uint64), ref.view(np.uint64))
