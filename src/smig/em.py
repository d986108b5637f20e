"""Background medium, complex wavenumber, antenna geometry, incident and plane-wave fields.

The propagation model is the two-dimensional one: a line source at d
radiates E_inc(d, r) = -(i/4) H_0^(1)(k |d - r|) into a homogeneous lossy
background with wavenumber k = sqrt(w^2 mu_b (eps_b + i sigma_b / w)),
principal branch.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, SingularityError
from .specfun import hankel1_0

VACUUM_PERMITTIVITY = 8.8541878128e-12  # F/m
VACUUM_PERMEABILITY = 4e-7 * math.pi  # H/m


@dataclass(frozen=True)
class MediumParams:
    """Homogeneous background constants.

    eps_b is the absolute permittivity (relative value times the vacuum
    permittivity); the permeability is constant everywhere.
    """

    eps_b: float
    sigma_b: float
    omega: float
    mu_b: float = VACUUM_PERMEABILITY

    def __post_init__(self):
        if not (0 < self.eps_b < math.inf and 0 < self.mu_b < math.inf
                and 0 < self.omega < math.inf and 0 <= self.sigma_b < math.inf):
            raise ConfigError("medium needs finite eps_b, mu_b, omega > 0 and sigma_b >= 0, "
                              "got %r" % (self,))

    @classmethod
    def from_relative(cls, permittivity_rel, conductivity, frequency_hz):
        return cls(
            eps_b=permittivity_rel * VACUUM_PERMITTIVITY,
            sigma_b=conductivity,
            omega=2.0 * math.pi * frequency_hz,
        )

    @property
    def frequency_hz(self):
        return self.omega / (2.0 * math.pi)


@dataclass(frozen=True)
class ComplexWavenumber:
    """Principal-branch wavenumber of a passive medium: Re k > 0, Im k >= 0, finite."""

    k: complex

    def __post_init__(self):
        if not (0 < self.k.real < math.inf and 0 <= self.k.imag < math.inf):
            raise ConfigError("wavenumber must have finite Re k > 0 and Im k >= 0, got %r"
                              % (self.k,))


@dataclass(frozen=True, eq=False)
class AntennaArray:
    """N antennas on a circle of radius R, equally spaced: angles 3pi/2 - 2pi(n-1)/N."""

    count: int
    radius: float
    angles: np.ndarray = field(init=False, repr=False)
    positions: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not 2 <= self.count <= MAX_ANTENNAS or self.count % 1:
            raise ConfigError("antenna count must be a whole number in [2, %d] (imaging needs "
                              "off-diagonal data), got %r" % (MAX_ANTENNAS, self.count))
        if not 0 < self.radius < math.inf:
            raise ConfigError("array radius must be finite and > 0, got %r" % (self.radius,))
        angles = 3.0 * math.pi / 2.0 - 2.0 * math.pi * np.arange(self.count) / self.count
        object.__setattr__(self, "radius", float(self.radius))
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "positions",
                           self.radius * np.stack([np.cos(angles), np.sin(angles)], axis=1))

    @property
    def directions(self):
        """Unit vectors d_n / |d_n|, one row per antenna."""
        return self.positions / self.radius

    def nearest(self, points):
        """Index of the antenna nearest each point (2,) or (P, 2), shape () or (P,).

        The ring is centred on the origin, so the nearest antenna is the one
        nearest in polar angle: one rounded angle per point, no distances.
        """
        points = np.asarray(points, dtype=float)
        phi = np.arctan2(points[..., 1], points[..., 0])
        turns = (self.angles[0] - phi) * (self.count / (2.0 * math.pi))
        return np.rint(turns).astype(np.intp) % self.count


# Largest antenna count an array may have.  The N x N matrices and their SVD
# grow as N^2 and N^3 (the imaging sweep's chunks in flight hold a fixed
# distance count).  At 1024 antennas (Table-1 scenario, 2-vCPU VM, one BLAS
# thread) `smig spectrum` takes 0.61 s and peaks at 174 MiB RSS; `smig image
# --format pgm` takes 0.72 s and 175 MiB with two sweep threads (8-fold sweep);
# `smig simulate` takes 2.4 s, 2.0 s of it in writing the three S-parameter
# files (one matrix row at a time), and peaks at 114 MiB.
MAX_ANTENNAS = 1024


def antenna_array(count, radius):
    """Canonical circular array constructor: AntennaArray(count, radius)."""
    return AntennaArray(count, radius)


def wavenumber(medium):
    """k = principal sqrt of w^2 mu_b (eps_b + i sigma_b / w)."""
    try:
        k2 = medium.omega ** 2 * medium.mu_b * complex(medium.eps_b, medium.sigma_b / medium.omega)
    except OverflowError:
        raise DomainError("wavenumber overflows at omega = %r rad/s" % (medium.omega,)) from None
    return ComplexWavenumber(k=complex(np.sqrt(k2)))


def lossless_wavenumber(medium):
    """Real phase constant of the same medium with the conductivity dropped."""
    return ComplexWavenumber(k=complex(medium.omega * math.sqrt(medium.mu_b * medium.eps_b)))


def wavelength(k):
    """lambda = 2 pi / Re k."""
    return 2.0 * math.pi / k.k.real


# A point closer to an antenna than this fraction of the array scale counts
# as on it.  Antenna coordinates R cos(angle), R sin(angle) round to ~1e-16 R
# (cos(3 pi / 2) = -1.8e-16), so an antenna that lies on a grid point in exact
# arithmetic misses it by ~1e-17 m; 1e-9 R is far above that rounding and far
# below any grid step or anomaly size the model resolves.
COINCIDENCE_RTOL = 1e-9


def _coincident(dist, scale):
    """Distances that count as zero at the given array scale."""
    return dist <= COINCIDENCE_RTOL * scale


def incident_field(d, r, k):
    """Line-source field -(i/4) H_0^(1)(k |d - r|); symmetric in (d, r).

    Raises when |d - r| <= COINCIDENCE_RTOL * max(|d|, |r|).
    """
    d = np.asarray(d, dtype=float)
    r = np.asarray(r, dtype=float)
    dist = float(np.hypot(d[0] - r[0], d[1] - r[1]))
    if _coincident(dist, max(np.hypot(*d), np.hypot(*r))):
        raise SingularityError("incident_field is singular at d = r")
    return -0.25j * hankel1_0(k.k * dist)


def incident_field_many(points, positions, k, table=None):
    """Incident field from every antenna to every point, and the coincident points.

    Returns (fields, coincident): fields has shape (npts, N); coincident,
    shape (npts,), flags the points within COINCIDENCE_RTOL times the array
    scale (the largest antenna distance from the origin) of an antenna.
    Rounding leaves on-grid antennas ~1e-17 m off their grid point, so an
    exact zero test would miss them.  A flagged point's row holds
    placeholder values for the caller to drop or reject: its coincident
    distances are replaced by the call's largest, which keeps them off the
    singularity and inside the table's range.  H_0^(1)(k d) comes from
    table, a specfun.DistanceTable for k.k that the imaging sweep builds
    once per map, or from hankel1_0 without one.
    """
    points = np.asarray(points, dtype=float)
    dist = np.hypot(points[:, 0, None] - positions[:, 0], points[:, 1, None] - positions[:, 1])
    bad = _coincident(dist, np.hypot(positions[:, 0], positions[:, 1]).max())
    if bad.any():
        dist = np.where(bad, dist.max(), dist)
    w = -0.25j * (hankel1_0(k.k * dist) if table is None else table(dist))
    return w, bad.any(axis=1)


def plane_wave_many(points, array, k):
    """Far-field phases e^{-ik d_n . r} with d_n = array.directions, shape (npts, N).

    k is a real or complex scalar."""
    return np.exp(-1j * k * (points @ array.directions.T))


def smallness_index(anomaly_radius, eps_star, medium):
    """Refractive contrast times diameter; compare with the wavelength."""
    if not anomaly_radius > 0 or not eps_star > 0:
        raise ConfigError("smallness_index expects positive radius and permittivity")
    return math.sqrt(eps_star / medium.eps_b) * 2.0 * anomaly_radius
