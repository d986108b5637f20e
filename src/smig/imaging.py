"""SVD-based imaging: rank selection, steering vectors, grid lattice and maps,
peak and half-max metrics.

Both imaging functions of the paper are one map, image, of the projection
|sum_m <W(r), U_m><W(r), conj V_m>| over the M dominant singular pairs.
The matrix kind picks M, in select_rank alone: a zero-diagonal matrix
images its first pair, a full matrix the pairs its rank policy keeps.

image maps a batch of matrices in one sweep of the grid, in chunks of
points on the calling thread.  The sweep visits one point of each orbit
of the symmetries the grid shares with the ring among the flips and
quarter turns of the square (all 8 on the Table-1 defaults): the steering
vector at g r is the one at r with its antennas permuted, so each chunk
builds the steering vectors of its points once and projects them, in one
product, onto one stack of every matrix's singular vectors, repeated once
per g with its rows permuted, and writes each value to the |G| points of
the orbit.  Each map point is written by one chunk, in a fixed order of
g.  A chunk holds _CHUNK_DISTANCES // max(N, sum of the ranks) points, at
least 3, so that its grid-to-antenna distances and its projections per g
stay within _CHUNK_DISTANCES above that floor.  Without a symmetry the
sweep visits every point.  Hankel steering reads H_0^(1)(k d) from one
specfun.hankel1_0_table per sweep, built over the visited points'
distance range whatever the grid's size.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import em, specfun
from .errors import ConfigError, DataError, KindError, RankError
from .forward import KIND_FULL, KIND_ZERO_DIAGONAL

STEERING_HANKEL = "hankel"
STEERING_PLANE_WAVE = "plane_wave"

# Grid-to-antenna distances per steering chunk, whatever the grid or antenna
# count: 8 rows of the 201-point Table-1 grid times 16 antennas.  A chunk's
# temporaries set the sweep's share of memory: over 20 s of repeated Table-1
# `smig image` requests (perfbench table1_image, 2-vCPU Intel Xeon, one BLAS
# thread) the process peaks at 43.9-44.0 MiB RSS, and at 42.0-42.4 MiB at half
# this budget, where the N = 64, 401^2 maps took as long within that host's
# run-to-run spread.
_CHUNK_DISTANCES = 8 * 201 * 16

RANK_MODES = ("relative_threshold", "fixed")

# Largest grid an ImagingGrid may describe: 2^22 points, 26 times the 401^2
# large case.  A steering chunk holds _CHUNK_DISTANCES distances, so memory
# grows with the points only through the representatives' indices and the
# value and output arrays: at 2047^2 points (Table-1 scenario, 8-fold sweep,
# 2-vCPU Intel Xeon, one BLAS thread) `smig image` peaks at 81 MiB RSS with CSV
# output (3.7-5.0 s), which the map itself sets (the writer holds one grid row
# at a time), and at 113 MiB with PGM output (0.8-0.95 s; the writer adds one
# float copy of the map).
MAX_GRID_POINTS = 2 ** 22


@dataclass(eq=False)
class SVDResult:
    """Descending singular values with matched left/right vector columns,
    and the kind of the matrix they decompose."""

    singular_values: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray
    kind: str


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
    """Rule selecting how many singular pairs of full-kind data enter the map."""

    mode: str = "relative_threshold"
    threshold: float = 0.02
    fixed_m: int | None = None

    def __post_init__(self):
        if self.mode not in RANK_MODES:
            raise ConfigError("unknown rank policy mode %r" % (self.mode,))
        if self.mode == "relative_threshold" and not 0.0 < self.threshold < 1.0:
            raise ConfigError("relative threshold must lie in (0, 1), got %r" % (self.threshold,))
        if self.mode == "fixed":
            if self.fixed_m is None or not self.fixed_m >= 1 or self.fixed_m % 1:
                raise ConfigError("fixed rank mode needs a whole number fixed_m >= 1, got %r"
                                  % (self.fixed_m,))
            object.__setattr__(self, "fixed_m", int(self.fixed_m))


@dataclass(frozen=True)
class FwhmResult:
    """Average x/y half-max width; flags a half-max region hitting the grid edge."""

    width: float
    touches_boundary: bool


def zero_diagonal(s_matrix):
    """Drop the self-measurement entries; idempotent."""
    entries = s_matrix.entries.copy()
    np.fill_diagonal(entries, 0.0)
    return replace(s_matrix, entries=entries, kind=KIND_ZERO_DIAGONAL)


def svd(s_matrix):
    """Full SVD with descending singular values."""
    if not np.all(np.isfinite(s_matrix.entries)):
        raise DataError("scattering matrix contains non-finite entries")
    u, tau, vh = np.linalg.svd(s_matrix.entries)
    return SVDResult(singular_values=tau, left_vectors=u, right_vectors=vh.conj().T,
                     kind=s_matrix.kind)


def select_rank(svd_result, policy):
    """Number of singular pairs the map projects (at least one).

    The diagonal-free map is the first pair by construction, whatever the
    policy; full-kind data keeps the pairs the policy selects.
    """
    tau = svd_result.singular_values
    if tau[0] <= 0.0:
        raise RankError("all-zero singular spectrum")
    if svd_result.kind == KIND_ZERO_DIAGONAL:
        return 1
    if policy.mode == "fixed":
        if policy.fixed_m > tau.size:
            raise ConfigError("fixed_m = %d exceeds matrix size %d" % (policy.fixed_m, tau.size))
        return policy.fixed_m
    return max(1, int(np.sum(tau >= policy.threshold * tau[0])))


def _steering_block(points, array, k, steering, table):
    """Unit steering vectors for a block of points, shape (npts, N).

    Returns (vectors, excluded) where excluded flags points coinciding
    with an antenna under Hankel steering, where H_0^(1) is singular:
    those rows carry placeholder values and the map is zero there, so
    antenna positions are not search points.  Plane-wave steering is
    finite everywhere and excludes no point.  table is the map's H_0^(1)
    table (Hankel steering).
    """
    if steering == STEERING_HANKEL:
        w, excluded = em.incident_field_many(points, array.positions, table)
    elif steering == STEERING_PLANE_WAVE:
        w = em.plane_wave_many(points, array, k.k)
        excluded = np.zeros(points.shape[0], dtype=bool)
    else:
        raise ConfigError("unknown steering kind %r" % (steering,))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    return w, excluded


def lattice(xs, ys):
    """Every (x, y) of the axes as rows of a (P, 2) array, x-major like a map's values."""
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel()], axis=1)


def _hankel_table(orbits, array, k):
    """One H_0^(1)(k d) table for every distance the sweep of orbits' representatives sees.

    Distance to an antenna is convex over the rectangle of the fundamental
    domain's index box, so its largest value is at the farthest corner and
    its smallest at the antenna clamped into the rectangle.
    """
    xs, ys = orbits.xs[:orbits.hx], orbits.ys[:orbits.hy]
    low, high = np.array([xs[0], ys[0]]), np.array([xs[-1], ys[-1]])
    pos = array.positions
    far = np.maximum(np.abs(pos - low), np.abs(pos - high))
    near = np.clip(pos, low, high) - pos
    return specfun.hankel1_0_table(k.k, np.hypot(*near.T).min(), np.hypot(*far.T).max())


# Largest mismatch, relative to the coordinate scale, at which a grid axis or
# an antenna counts as its own mirror image.  Antenna coordinates R cos(angle),
# R sin(angle) of angles rounded to ~1e-15 miss their mirror antennas by up to
# 1.8e-15 R (N = 2 ... 1024), grid axes by 2.8e-16 of their extent; a miss of
# 4e-15 times 0.1 m shifts a phase by 4e-14 at |k| = 100.
_SYMMETRY_RTOL = 4e-15


def _symmetries(xs, ys, array):
    """The signed axis permutations that map the grid axes and the ring onto themselves.

    Returns [(swap, flip_x, flip_y, perm)], the identity first: the map
    g(x, y) = (+-u, +-v), (u, v) = (y, x) under swap and (x, y) otherwise,
    takes every grid point to a grid point and antenna n to antenna perm[n]
    (a_perm[n] = g a_n).  The swap is kept only with both flips, so the
    group is {e}, {e, fx}, {e, fy}, {e, fx, fy, fx fy} or all 8.
    """
    pos = array.positions
    tol = _SYMMETRY_RTOL * max(np.abs(xs).max(), np.abs(ys).max(), np.abs(pos).max())

    def ring(moved):  # the antenna permutation of a move, None if the ring does not map
        perm = array.nearest(moved)
        return perm if np.abs(pos[perm] - moved).max() <= tol else None

    fx = ring(pos * [-1.0, 1.0]) if np.abs(xs + xs[::-1]).max() <= tol else None
    fy = ring(pos * [1.0, -1.0]) if np.abs(ys + ys[::-1]).max() <= tol else None
    sw = None
    if fx is not None and fy is not None and xs.size == ys.size and np.abs(xs - ys).max() <= tol:
        sw = ring(pos[:, ::-1])
    e = np.arange(array.count)
    # g = (x flip)(y flip)(swap) carries antenna n to fx[fy[sw[n]]].
    return [(swap, flip_x, flip_y, px[py[ps]])
            for swap, ps in ((False, e), (True, sw)) if ps is not None
            for flip_x, px in ((False, e), (True, fx)) if px is not None
            for flip_y, py in ((False, e), (True, fy)) if py is not None]


@dataclass(frozen=True, eq=False)
class _Orbits:
    """A grid's orbits under the symmetries it shares with the antenna ring.

    elements are _symmetries'.  The fundamental domain, one point per
    orbit, is the index box i < hx, j < hy, and i <= j under the swap:
    hx = ceil(nx / 2) under the x flip, hy = ceil(ny / 2) under the y flip.
    """

    xs: np.ndarray
    ys: np.ndarray
    elements: list
    hx: int
    hy: int
    swap: bool

    def representatives(self):
        """Grid indices (i, j) of the fundamental domain, row by row."""
        i, j = np.divmod(np.arange(self.hx * self.hy), self.hy)
        if self.swap:
            keep = i <= j
            i, j = i[keep], j[keep]
        return i, j

    def images(self, i, j):
        """Flat grid index of g (i, j) for each element g, in the elements' order."""
        nx, ny = self.xs.size, self.ys.size
        out = []
        for swap, flip_x, flip_y, _ in self.elements:
            a, b = (j, i) if swap else (i, j)
            out.append((nx - 1 - a if flip_x else a) * ny + (ny - 1 - b if flip_y else b))
        return out


def _orbits(grid, array):
    """The grid's _Orbits under _symmetries."""
    xs, ys = grid.x_axis(), grid.y_axis()
    elements = _symmetries(xs, ys, array)
    swap, flip_x, flip_y = (any(g[f] for g in elements) for f in range(3))
    return _Orbits(xs, ys, elements, (xs.size + 1) // 2 if flip_x else xs.size,
                   (ys.size + 1) // 2 if flip_y else ys.size, swap)


def _projection_maps(decomps, ranks, grid, array, k, steering):
    """values[i] is map i's projection over the flattened grid: one sweep for all maps.

    The maps' first ranks[i] left and conjugated right singular vectors
    stand side by side in one stack, map i in the columns stops[i] -
    ranks[i] to stops[i], stops = cumsum(ranks); the stack repeats once
    per symmetry g of the grid's orbits (_orbits), its rows permuted by g.
    The sweep visits one point of each orbit, projects a chunk's steering
    block onto the whole stack in one product, with the rows of points on
    an antenna zeroed, and writes each map's sum to every point of the
    orbit.  A chunk holds _CHUNK_DISTANCES // max(N, sum(ranks)) points, so
    neither its steering block nor its projections per g hold more than
    _CHUNK_DISTANCES values, unless the floor of 3 points applies.
    """
    orbits = _orbits(grid, array)
    perms = [g[3] for g in orbits.elements]
    u = np.concatenate([d.left_vectors[:, :m] for d, m in zip(decomps, ranks)], axis=1)
    v_conj = np.concatenate([d.right_vectors[:, :m].conj() for d, m in zip(decomps, ranks)],
                            axis=1)
    u, v_conj = (np.concatenate([a[p] for p in perms], axis=1) for a in (u, v_conj))
    stops = np.cumsum(ranks)
    table = _hankel_table(orbits, array, k) if steering == STEERING_HANKEL else None
    rep_i, rep_j = orbits.representatives()
    n = rep_i.size
    vals = np.empty((len(decomps), grid.shape[0] * grid.shape[1]), dtype=float)
    block = max(3, _CHUNK_DISTANCES // max(array.count, sum(ranks)))
    # A one-point chunk takes BLAS's dot kernel, which rounds differently from
    # the matrix kernels of larger chunks: a last chunk of one point takes one
    # more from the chunk before, so no value depends on where the chunk
    # boundaries fall.  The floor of 3 points leaves both of them 2 or more.
    bounds = list(range(0, n, block)) + [n]
    if len(bounds) > 2 and n - bounds[-2] == 1:
        bounds[-2] -= 1
    # Every chunk projects into the same two buffers: chunk-sized arrays
    # made and freed per chunk go back to the OS and fault in again.
    wu, wv = (np.empty((min(block, n), u.shape[1]), dtype=complex) for _ in range(2))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        i, j = rep_i[lo:hi], rep_j[lo:hi]
        pts = np.stack([orbits.xs[i], orbits.ys[j]], axis=1)
        w, excluded = _steering_block(pts, array, k, steering, table)
        np.conjugate(w, out=w)
        w[excluded] = 0.0
        prod = np.matmul(w, u, out=wu[: hi - lo])
        prod *= np.matmul(w, v_conj, out=wv[: hi - lo])
        prod = prod.reshape(hi - lo, len(perms), -1)
        # A point on an axis or diagonal is the image of its own
        # representative under several g; the last g in order wins.  Each
        # map takes its own (pairwise) np.sum: one np.add.reduceat over all
        # maps adds the terms in sequence and rounds differently.
        for q, image in enumerate(orbits.images(i, j)):
            for m, (start, stop) in enumerate(zip(stops - ranks, stops)):
                vals[m, image] = np.abs(np.sum(prod[:, q, start:stop], axis=1))
        del w  # before the next chunk's steering block exists
    return vals.reshape((len(decomps),) + grid.shape)


def image(matrices, grid, array, k, policy=RankPolicy(), steering=STEERING_HANKEL):
    """One map per matrix of the sequence matrices, all from one sweep of the grid.

    Each map is the projection sum over the singular pairs select_rank
    picks for its matrix; on zero-diagonal data that is the first pair and
    the values lie in [0, 1].  Every matrix must be N x N for the N-antenna
    array.
    """
    if not matrices:
        return []
    for s_matrix in matrices:
        if s_matrix.size != array.count:
            raise DataError("a %d x %d matrix cannot be imaged with %d antennas"
                            % (s_matrix.size, s_matrix.size, array.count))
    decomps = [svd(s_matrix) for s_matrix in matrices]
    ranks = [select_rank(decomp, policy) for decomp in decomps]
    values = _projection_maps(decomps, ranks, grid, array, k, steering)
    return [ImageMap(grid, v, m, s_matrix.frequency_hz, s_matrix.kind)
            for s_matrix, v, m in zip(matrices, values, ranks)]


def image_full(s_matrix, grid, array, k, policy=RankPolicy(), steering=STEERING_HANKEL):
    """image of one full-kind matrix."""
    if s_matrix.kind != KIND_FULL:
        raise KindError("image_full expects a full-kind matrix")
    return image([s_matrix], grid, array, k, policy, steering)[0]


def image_diag(s_matrix, grid, array, k, steering=STEERING_HANKEL):
    """image of one zero-diagonal matrix."""
    if s_matrix.kind != KIND_ZERO_DIAGONAL:
        raise KindError("image_diag expects a zero_diagonal-kind matrix")
    return image([s_matrix], grid, array, k, steering=steering)[0]


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


def half_max_near(image, center, radius, reach):
    """(near, hot): counts of the grid points at or above half the map maximum
    (hot), and of those within reach of the disc (center, radius) (near)."""
    hot = image.values.ravel() >= 0.5 * image.values.max()
    pts = lattice(image.grid.x_axis(), image.grid.y_axis())
    gap = np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1]) - radius
    return int(np.sum(hot & (gap <= reach))), int(np.sum(hot))
