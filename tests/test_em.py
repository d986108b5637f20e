import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from smig import em
from smig.errors import ConfigError, DomainError, SingularityError

from oracle_values import H0_AT_10, LAMBDA_LOSSLESS, LAMBDA_PAPER, SMALLNESS_EXTENDED, SMALLNESS_SMALL


def test_vacuum_normalization():
    # omega chosen so omega * sqrt(mu0 eps0) = 1.
    omega = 1.0 / math.sqrt(em.VACUUM_PERMEABILITY * em.VACUUM_PERMITTIVITY)
    medium = em.MediumParams(eps_b=em.VACUUM_PERMITTIVITY, sigma_b=0.0, omega=omega)
    k = em.wavenumber(medium).k
    assert abs(k - 1.0) <= 1e-12


def test_paper_wavelength(paper_medium):
    lam = em.wavelength(em.wavenumber(paper_medium))
    assert abs(lam - 0.0670) / 0.0670 <= 0.01
    assert abs(lam - LAMBDA_PAPER) <= 1e-12


def test_lossy_medium_attenuates(paper_medium):
    assert em.wavenumber(paper_medium).k.imag > 0


def test_wavelength_unit_case():
    assert em.wavelength(em.ComplexWavenumber(2.0 * math.pi + 0.0j)) == 1.0


def test_lossless_wavelength_hand_value(paper_medium):
    lam = em.wavelength(em.lossless_wavenumber(paper_medium))
    assert abs(lam - LAMBDA_LOSSLESS) <= 1e-12
    assert round(lam, 5) == 0.06704


@given(c=st.sampled_from([2.0, 4.0, 0.5, 0.25]))
def test_wavenumber_homogeneity_exact(c):
    m1 = em.MediumParams.from_relative(20.0, 0.0, 1.0e9)
    m2 = em.MediumParams(eps_b=m1.eps_b, sigma_b=0.0, omega=c * m1.omega)
    assert em.wavenumber(m2).k.real == c * em.wavenumber(m1).k.real


def test_antenna_first_position(paper_array):
    assert abs(paper_array.positions[0][0]) <= 1e-12
    assert abs(paper_array.positions[0][1] + 0.09) <= 1e-12


def test_antenna_angles_n4():
    arr = em.antenna_array(4, 1.0)
    expected = [3 * math.pi / 2, math.pi, math.pi / 2, 0.0]
    assert np.allclose(arr.angles, expected, atol=1e-15)


@given(count=st.integers(min_value=2, max_value=64),
       radius=st.floats(min_value=0.01, max_value=10.0))
def test_antenna_radii(count, radius):
    arr = em.antenna_array(count, radius)
    assert np.allclose(np.hypot(*arr.positions.T), radius, rtol=1e-12)


@given(count=st.integers(min_value=2, max_value=64))
def test_antenna_angles_strictly_decreasing(count):
    arr = em.antenna_array(count, 1.0)
    steps = np.diff(arr.angles)
    assert np.allclose(steps, -2 * math.pi / count, atol=1e-12)


def test_antenna_count_too_small():
    with pytest.raises(ConfigError):
        em.antenna_array(1, 0.09)


def test_antenna_count_bound():
    assert em.antenna_array(em.MAX_ANTENNAS, 0.09).positions.shape == (em.MAX_ANTENNAS, 2)
    with pytest.raises(ConfigError, match="antenna count"):
        em.antenna_array(em.MAX_ANTENNAS + 1, 0.09)


@given(
    dx=st.floats(min_value=-0.2, max_value=0.2), dy=st.floats(min_value=-0.2, max_value=0.2),
    rx=st.floats(min_value=-0.2, max_value=0.2), ry=st.floats(min_value=-0.2, max_value=0.2),
)
def test_incident_field_symmetry(paper_k, dx, dy, rx, ry):
    d = np.array([dx, dy])
    r = np.array([rx, ry])
    if np.hypot(*(d - r)) < 1e-6:
        return
    assert em.incident_field(d, r, paper_k) == em.incident_field(r, d, paper_k)


def test_incident_field_decay(paper_k):
    near = em.incident_field((0.0, 0.0), (0.02, 0.0), paper_k)
    far = em.incident_field((0.0, 0.0), (0.2, 0.0), paper_k)
    assert abs(near) > abs(far)


def test_incident_field_oracle_value():
    # k |d - r| = 10 with a real wavenumber.
    k = em.ComplexWavenumber(100.0 + 0.0j)
    got = em.incident_field((0.0, 0.0), (0.1, 0.0), k)
    assert abs(got - (-0.25j) * H0_AT_10) <= 1e-13


def test_incident_field_singularity(paper_k):
    with pytest.raises(SingularityError):
        em.incident_field((0.01, 0.02), (0.01, 0.02), paper_k)


@given(angle=st.floats(min_value=-math.pi, max_value=math.pi))
def test_incident_field_rotation_invariance(paper_k, angle):
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    d = np.array([0.07, -0.02])
    r = np.array([-0.01, 0.04])
    a = em.incident_field(d, r, paper_k)
    b = em.incident_field(rot @ d, rot @ r, paper_k)
    assert abs(a - b) <= 1e-12 * abs(a)


def test_smallness_small_scenario(paper_medium):
    got = em.smallness_index(0.010, 55.0 * em.VACUUM_PERMITTIVITY, paper_medium)
    assert abs(got - SMALLNESS_SMALL) <= 1e-9


def test_smallness_extended_scenario(paper_medium):
    got = em.smallness_index(0.050, 15.0 * em.VACUUM_PERMITTIVITY, paper_medium)
    assert abs(got - SMALLNESS_EXTENDED) <= 1e-9


def test_smallness_unit_contrast(paper_medium):
    got = em.smallness_index(0.5 * 0.034, paper_medium.eps_b, paper_medium)
    assert abs(got - 0.034) <= 1e-12


def test_medium_invariants():
    with pytest.raises(ConfigError):
        em.MediumParams(eps_b=-1.0, sigma_b=0.0, omega=1.0)
    with pytest.raises(ConfigError):
        em.MediumParams(eps_b=1.0, sigma_b=-0.1, omega=1.0)
    with pytest.raises(ConfigError):
        em.MediumParams(eps_b=1.0, sigma_b=0.0, omega=0.0)


def test_wavenumber_invariants():
    with pytest.raises(ConfigError):
        em.ComplexWavenumber(-1.0 + 0.0j)
    with pytest.raises(ConfigError):
        em.ComplexWavenumber(1.0 - 0.5j)


@pytest.mark.parametrize("eps_b, sigma_b, omega", [
    (math.nan, 0.0, 1.0), (math.inf, 0.0, 1.0), (1.0, math.nan, 1.0),
    (1.0, math.inf, 1.0), (1.0, 0.0, math.nan), (1.0, 0.0, math.inf),
])
def test_medium_rejects_non_finite(eps_b, sigma_b, omega):
    with pytest.raises(ConfigError):
        em.MediumParams(eps_b=eps_b, sigma_b=sigma_b, omega=omega)


def test_wavenumber_overflow_is_typed():
    medium = em.MediumParams.from_relative(20.0, 0.2, 1e300)
    with pytest.raises(DomainError):
        em.wavenumber(medium)
    with pytest.raises(ConfigError):
        em.ComplexWavenumber(complex(math.inf, 0.0))
    with pytest.raises(ConfigError):
        em.ComplexWavenumber(complex(1.0, math.nan))


@pytest.mark.parametrize("radius", [math.nan, math.inf])
def test_antenna_radius_must_be_finite(radius):
    with pytest.raises(ConfigError):
        em.antenna_array(16, radius)


def test_array_derives_its_geometry():
    # Bit for bit the angles 3pi/2 - 2pi n/N and their points on radius R.
    arr = em.AntennaArray(16, 0.09)
    angles = 3.0 * math.pi / 2.0 - 2.0 * math.pi * np.arange(16) / 16
    positions = 0.09 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    assert np.array_equal(arr.angles, angles)
    assert np.array_equal(arr.positions, positions)
    same = em.antenna_array(16, 0.09)
    assert np.array_equal(arr.angles, same.angles)
    assert np.array_equal(arr.positions, same.positions)


def test_array_takes_no_angles_and_checks_its_inputs():
    with pytest.raises(TypeError):
        em.AntennaArray(16, 0.09, angles=np.zeros(16))
    for count in (1, em.MAX_ANTENNAS + 1, 16.5, math.nan):
        with pytest.raises(ConfigError, match="antenna count"):
            em.AntennaArray(count, 0.09)
    for radius in (math.nan, math.inf, 0.0):
        with pytest.raises(ConfigError, match="radius"):
            em.AntennaArray(16, radius)


@pytest.mark.parametrize("k", [93.729038762256, 93.8 + 12.5j])
def test_plane_wave_many_matches_per_point(paper_array, k):
    points = np.random.default_rng(4).uniform(-0.1, 0.1, size=(37, 2))
    many = em.plane_wave_many(points, paper_array, k)
    assert many.shape == (37, paper_array.count)
    for row, r in zip(many, points):
        per_point = np.exp(-1j * k * (paper_array.directions @ r))
        # One point is bit-equal (ideal_plane_wave_matrix relies on it); a
        # batch row may differ in the last bits, since BLAS rounds a matrix
        # product through other kernels than a matrix-vector product.
        assert np.array_equal(em.plane_wave_many(r[None], paper_array, k)[0], per_point)
        assert np.abs(row - per_point).max() <= 1e-13
