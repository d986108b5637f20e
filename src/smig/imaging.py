"""SVD-based imaging: rank selection, test vectors, grid maps, peak metrics.

Two map variants share one projection formula
|sum_m <W(r), U_m><W(r), conj V_m>|: the full-matrix map sums the M
dominant singular pairs picked by a rank policy, the diagonal-free map is
hardwired to the first pair of a zero-diagonal matrix.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import em, specfun
from .errors import ConfigError, DataError, KindError, RankError, SingularityError
from .forward import KIND_FULL, KIND_ZERO_DIAGONAL, ScatteringMatrix

STEERING_HANKEL = "hankel"
STEERING_PLANE_WAVE = "plane_wave"

# Grid-to-antenna distances per steering chunk, whatever the grid or antenna
# count: 16 rows of the 201-point Table-1 grid times 16 antennas.
_CHUNK_DISTANCES = 16 * 201 * 16

RANK_MODES = ("relative_threshold", "fixed")

# Largest grid an ImagingGrid may describe: 2^22 points, 26 times the 401^2
# large case.  The steering sweep runs in _CHUNK_DISTANCES chunks, so memory
# grows with the points only through the coordinate, value and output arrays:
# at 2047^2 points (Table-1 scenario, 2-vCPU VM) `smig image` peaks at
# 167 MiB RSS with PGM output (11 s) and 231 MiB with CSV output (17 s).
MAX_GRID_POINTS = 2 ** 22


@dataclass(eq=False)
class SVDResult:
    """Descending singular values with matched left/right vector columns."""

    singular_values: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray


@dataclass(frozen=True)
class ImagingGrid:
    """Rectangular search grid: finite bounds with min < max, finite step > 0,
    at most MAX_GRID_POINTS points (checked before any array exists)."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    step: float

    def __post_init__(self):
        if not (0 < self.step < math.inf and -math.inf < self.x_min < self.x_max < math.inf
                and -math.inf < self.y_min < self.y_max < math.inf):
            raise ConfigError("grid needs finite bounds with min < max and a finite step > 0, "
                              "got %r" % (self,))
        # At least the point count, in floats: a span too large overflows to
        # inf here instead of reaching math.floor in _axis.
        points = (((self.x_max - self.x_min) / self.step + 1)
                  * ((self.y_max - self.y_min) / self.step + 1))
        if not points <= MAX_GRID_POINTS:
            raise ConfigError("grid of %.3g points exceeds the budget of %d"
                              % (points, MAX_GRID_POINTS))

    def _axis(self, lo, hi):
        # floor: a span that is not a whole number of steps stops short of
        # hi, not past it; the epsilon keeps whole spans such as 0.2 / 0.001
        # at full length, and the clip keeps their last point off hi + 1 ulp.
        n = math.floor((hi - lo) / self.step + 1e-9) + 1
        return np.minimum(lo + self.step * np.arange(n), hi)

    def x_axis(self):
        return self._axis(self.x_min, self.x_max)

    def y_axis(self):
        return self._axis(self.y_min, self.y_max)

    @property
    def shape(self):
        return (self.x_axis().size, self.y_axis().size)


@dataclass(eq=False)
class ImageMap:
    """Nonnegative map values[ix, iy] over an ImagingGrid, plus run metadata."""

    grid: ImagingGrid
    values: np.ndarray
    rank_used: int
    frequency_hz: float
    matrix_kind: str

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ConfigError(
                "map shape %r does not match grid %r" % (self.values.shape, self.grid.shape)
            )
        if not np.all(self.values >= 0):
            raise ConfigError("map values must be nonnegative, not NaN")


@dataclass(frozen=True)
class RankPolicy:
    """Rule selecting how many singular pairs enter the full-matrix map."""

    mode: str = "relative_threshold"
    threshold: float = 0.02
    fixed_m: int | None = None

    def __post_init__(self):
        if self.mode not in RANK_MODES:
            raise ConfigError("unknown rank policy mode %r" % (self.mode,))
        if self.mode == "relative_threshold" and not 0.0 < self.threshold < 1.0:
            raise ConfigError("relative threshold must lie in (0, 1), got %r" % (self.threshold,))
        if self.mode == "fixed" and (self.fixed_m is None or self.fixed_m < 1):
            raise ConfigError("fixed rank mode needs fixed_m >= 1")


@dataclass(frozen=True)
class FwhmResult:
    """Average x/y half-max width; flags a half-max region hitting the grid edge."""

    width: float
    touches_boundary: bool


def zero_diagonal(s_matrix):
    """Drop the self-measurement entries; idempotent."""
    entries = s_matrix.entries.copy()
    np.fill_diagonal(entries, 0.0)
    return ScatteringMatrix(entries, KIND_ZERO_DIAGONAL, s_matrix.provenance, s_matrix.frequency_hz)


def svd(s_matrix):
    """Full SVD with descending singular values."""
    if not np.all(np.isfinite(s_matrix.entries)):
        raise DataError("scattering matrix contains non-finite entries")
    u, tau, vh = np.linalg.svd(s_matrix.entries)
    return SVDResult(singular_values=tau, left_vectors=u, right_vectors=vh.conj().T)


def select_rank(svd_result, policy):
    """Number of singular pairs the policy keeps (at least one)."""
    tau = svd_result.singular_values
    if tau[0] <= 0.0:
        raise RankError("all-zero singular spectrum")
    if policy.mode == "fixed":
        if policy.fixed_m > tau.size:
            raise ConfigError("fixed_m = %d exceeds matrix size %d" % (policy.fixed_m, tau.size))
        return policy.fixed_m
    return max(1, int(np.sum(tau >= policy.threshold * tau[0])))


def test_vector(r, array, k):
    """Unit steering vector of line-source fields from every antenna to r.

    The exact (hankel1_0) reference for the map's steering; raises on an antenna.
    """
    r = np.asarray(r, dtype=float)
    w, coincident = em.incident_field_many(r[None, :], array.positions, k)
    if coincident[0]:
        raise SingularityError("a search point coincides with an antenna position")
    return w[0] / np.linalg.norm(w[0])


def _steering_block(points, array, k, steering, table):
    """Unit steering vectors for a block of points, shape (npts, N).

    Returns (vectors, excluded) where excluded flags points coinciding
    with an antenna; those rows carry placeholder values and the map sets
    them to zero, honoring the grid rule that antenna positions are not
    search points.  table is the map's H_0^(1) table (Hankel steering).
    """
    if steering == STEERING_HANKEL:
        w, excluded = em.incident_field_many(points, array.positions, k, table=table)
    elif steering == STEERING_PLANE_WAVE:
        phases = points @ array.directions.T  # (npts, N) of theta_n . r
        w = np.exp(-1j * k.k * phases)
        excluded = np.zeros(points.shape[0], dtype=bool)
    else:
        raise ConfigError("unknown steering kind %r" % (steering,))
    return w / np.linalg.norm(w, axis=1, keepdims=True), excluded


def _grid_points(grid):
    xs = grid.x_axis()
    ys = grid.y_axis()
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel()], axis=1)


def _hankel_table(grid, array, k):
    """One H_0^(1)(k d) table for every grid-to-antenna distance of a map.

    Distance to an antenna is convex over the grid rectangle, so its
    largest value is at the farthest corner and its smallest at the
    antenna clamped into the rectangle.  The size rule sees the whole
    map's distances.
    """
    xs, ys = grid.x_axis(), grid.y_axis()
    low, high = np.array([xs[0], ys[0]]), np.array([xs[-1], ys[-1]])
    pos = array.positions
    far = np.maximum(np.abs(pos - low), np.abs(pos - high))
    near = np.clip(pos, low, high) - pos
    return specfun.hankel1_0_table(k.k, np.hypot(*near.T).min(), np.hypot(*far.T).max(),
                                   xs.size * ys.size * array.count)


def _projection_map(decomp, grid, array, k, m_used, steering):
    u = decomp.left_vectors[:, :m_used]
    v = decomp.right_vectors[:, :m_used]
    pts = _grid_points(grid)
    table = _hankel_table(grid, array, k) if steering == STEERING_HANKEL else None
    vals = np.empty(pts.shape[0], dtype=float)
    block = max(1, _CHUNK_DISTANCES // array.count)
    for lo in range(0, pts.shape[0], block):
        hi = min(lo + block, pts.shape[0])
        w, excluded = _steering_block(pts[lo:hi], array, k, steering, table)
        a = w.conj() @ u
        b = w.conj() @ v.conj()
        chunk = np.abs(np.sum(a * b, axis=1))
        chunk[excluded] = 0.0
        vals[lo:hi] = chunk
    return vals.reshape(grid.shape)


def image_full(s_matrix, grid, array, k, policy=RankPolicy(), steering=STEERING_HANKEL):
    """Map of the M-pair projection sum on full-kind data."""
    if s_matrix.kind != KIND_FULL:
        raise KindError("image_full expects a full-kind matrix")
    decomp = svd(s_matrix)
    m_used = select_rank(decomp, policy)
    values = _projection_map(decomp, grid, array, k, m_used, steering)
    return ImageMap(grid, values, m_used, s_matrix.frequency_hz, s_matrix.kind)


def image_diag(s_matrix, grid, array, k, steering=STEERING_HANKEL):
    """First-pair projection map on zero-diagonal data; values lie in [0, 1]."""
    if s_matrix.kind != KIND_ZERO_DIAGONAL:
        raise KindError("image_diag expects a zero_diagonal-kind matrix")
    values = _projection_map(svd(s_matrix), grid, array, k, 1, steering)
    return ImageMap(grid, values, 1, s_matrix.frequency_hz, s_matrix.kind)


def argmax(image):
    """First maximal grid point in row-major order (deterministic ties)."""
    flat = int(np.argmax(image.values))
    ix, iy = np.unravel_index(flat, image.values.shape)
    loc = np.array([image.grid.x_axis()[ix], image.grid.y_axis()[iy]])
    return loc, float(image.values[ix, iy])


def _half_crossing(axis, profile, i_peak, half, direction):
    """Interpolated axis coordinate where the profile drops to half."""
    i = i_peak
    n = profile.size
    while 0 <= i + direction < n and profile[i + direction] >= half:
        i += direction
    j = i + direction
    if j < 0 or j >= n:
        return axis[i], True
    f = (profile[i] - half) / (profile[i] - profile[j])
    return axis[i] + f * (axis[j] - axis[i]), False


def fwhm(image, peak_location):
    """Half-max diameter around the peak, averaged over the x and y cuts."""
    xs = image.grid.x_axis()
    ys = image.grid.y_axis()
    ix = int(np.argmin(np.abs(xs - peak_location[0])))
    iy = int(np.argmin(np.abs(ys - peak_location[1])))
    half = image.values[ix, iy] / 2.0
    widths = []
    touched = False
    for axis, profile, ipk in ((xs, image.values[:, iy], ix), (ys, image.values[ix, :], iy)):
        hi, t1 = _half_crossing(axis, profile, ipk, half, +1)
        lo, t2 = _half_crossing(axis, profile, ipk, half, -1)
        widths.append(hi - lo)
        touched = touched or t1 or t2
    return FwhmResult(width=float(np.mean(widths)), touches_boundary=touched)
