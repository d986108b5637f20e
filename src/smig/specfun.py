"""Integer-order Bessel and Hankel functions for real and complex arguments.

Everything downstream (incident fields, disc scattering series, the
closed-form imaging-structure series) is built on the functions here, so
the accuracy contracts are deliberately tight: relative error <= 1e-10 for
real arguments with |z| <= 25 and <= 1e-8 for complex arguments with
|z| <= 25, |Im z| <= 5.

Algorithm layout (one path for scalars and arrays; a scalar is evaluated
as a 1-element batch and unwrapped):
  * |z| <= 25: downward (Miller) recurrence for a whole batch of orders,
    normalized with J0 + 2*sum J_{2m} = 1; Y0/Y1 from the logarithmic
    Neumann series over the same batch, so no fresh cancellation enters.
    The recurrence takes 2/z once and scales it by each order s.  It checks
    for overflow every 8 orders: between two checks the values grow by at
    most (2s/|z| + 1)^8 < 3e82 (|z| >= 1e-6, s <= MAX_ARGUMENT + 52), and a
    point past the 2^664 (~1.2e200) limit is scaled by 2^-664, exactly.
    The Neumann sums are two coefficient-vector products, over the even and
    over the odd orders.  Each value is rounded alike whatever the batch's
    width (in-place complex products and BLAS sums would not be); the
    starting order still follows the batch's largest |z|.
  * |z| > 25: Hankel asymptotic expansions (14 terms; min term < 1e-14
    at the switchover) for orders 0 and 1.  H^(1) is taken from its own
    expansion; J and Y are the half-sum and half-difference of H^(1) and
    H^(2), which do not cancel.  Higher J orders stay on the Miller batch.
  * Each quantity has one entry point with one near/far split: bessel_j
    (Miller batch below 25; above, orders 0-1 from the half-sum and
    orders >= 2 from the Miller batch), bessel_y (Neumann series / half-
    difference) and hankel1_sequence (H_0, H_1 as J + iY from one Miller
    batch / the H^(1) expansion, then upward recurrence).  hankel1_0 is
    hankel1_sequence's order 0.
  * The truncated Jacobi-Anger sum J_0(x) + 2 sum i^s J_s(x) cos(s theta)
    is evaluated for a batch of points and angles from one Miller batch;
    covering_truncation picks the order S for arguments up to x from the
    term bound (x/2)^S / S!, or holds a given order to that bound.
  * Bulk H_0^(1)(k d) over many real distances d at one k, the imaging
    sweep: for fixed k the function is smooth in d away from d = 0, so a
    piecewise power-basis table (hankel1_0_table), evaluated by Horner's
    rule (DistanceTable), costs about a tenth of the exact path per
    distance.  Its Chebyshev node values come from Graf's addition theorem
    (DLMF 10.23.7): one hankel1_sequence over the segment centres and one
    J batch over the node offsets, which every segment shares.  The
    imaging sweep builds one table per map over the grid's whole distance
    range and reads it chunk by chunk.  Segments are 0.05 rad wide in
    |k| d, degree 7.  Below |k| d = 0.4 the log singularity at d = 0 is
    too close for the table and hankel1_0 is used; at that floor the first
    segment's centre is 17 half-widths from the singularity.  hankel1_0
    remains the reference; the table agrees with it to about 1e-13 relative.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularityError, TruncationError

EULER_GAMMA = 0.5772156649015328606

MAX_ORDER = 512
MAX_ARGUMENT = 1.0e4

_SERIES_CUTOFF = 25.0
# Miller normalizer and Neumann tail both need orders ~|z| past the last
# oscillation; +40 keeps the dropped tail below 1e-18 at |z| = 25.
_ORDER_PAD = 40
# Rescale check interval (orders) and threshold; see _j_sequence for the bound.
_RESCALE_STRIDE = 8
_RESCALE_LIMIT = 2.0 ** 664  # about 1.2e200


@dataclass(frozen=True)
class SeriesTruncation:
    """Finite surrogate for the two-sided infinite order sum.

    max_order is the largest retained |s|; abs_tol is the absolute
    truncation tolerance the caller wants the dropped tail to respect.
    """

    max_order: int = 64
    abs_tol: float = 1e-10

    def __post_init__(self):
        if self.max_order < 1:
            raise DomainError("SeriesTruncation.max_order must be >= 1, got %r" % (self.max_order,))
        if not self.abs_tol > 0:
            raise DomainError("SeriesTruncation.abs_tol must be > 0, got %r" % (self.abs_tol,))


def _term_bounds(x):
    """(S, (x/2)^S / S!) for S = 1, 2, ...: bounds on |J_S(x)|, falling once below 1."""
    bound = 1.0
    for order in itertools.count(1):
        bound *= (x / 2.0) / order
        yield order, bound


def covering_truncation(x, trunc=None):
    """The truncation of a Jacobi-Anger sum over arguments up to max(x).

    A given trunc comes back if the term bound (x/2)^S / S! at its order S
    is <= its abs_tol, else TruncationError.  With none, max_order is the
    smallest S >= 64 (the default) whose bound is <= abs_tol, the default
    1e-10; an x that needs an order past MAX_ORDER, or is not finite, raises.
    """
    x = float(np.max(x, initial=0.0))
    if trunc is not None:
        bound = next(b for order, b in _term_bounds(x) if order == trunc.max_order)
        if not bound <= trunc.abs_tol:
            raise TruncationError(
                "Jacobi-Anger sum at x = %.6g: order %d leaves a term bound %.3g > %g"
                % (x, trunc.max_order, bound, trunc.abs_tol))
        return trunc
    abs_tol = SeriesTruncation.abs_tol
    for order, bound in _term_bounds(x):
        if order > MAX_ORDER:
            raise TruncationError(
                "Jacobi-Anger sum at x = %.6g needs an order past %d for tolerance %g"
                % (x, MAX_ORDER, abs_tol))
        if bound <= abs_tol and order >= SeriesTruncation.max_order:
            return SeriesTruncation(order, abs_tol)


def _as_batch(z):
    """z as a complex array of at least one dimension, plus whether it was a scalar.

    The one argument check, shared by every entry point and the Miller batch:
    non-finite z or |z| > MAX_ARGUMENT raises DomainError (the recurrence
    would run ~|z| steps); an empty array yields an empty result.
    """
    arr = np.asarray(z, dtype=complex)
    if not np.abs(arr).max(initial=0.0) <= MAX_ARGUMENT:
        raise DomainError("argument must be finite with magnitude <= %g" % MAX_ARGUMENT)
    return np.atleast_1d(arr), arr.ndim == 0


def _j_sequence(z, s_max):
    """J_0(z)..J_{s_max}(z) by normalized downward recurrence.

    Accepts a scalar or an ndarray argument; returns shape
    (s_max+1,) + z.shape.  Valid for any |z| <= MAX_ARGUMENT (larger or
    non-finite z raises DomainError); intended workhorse for |z| <= 25
    where it carries full double precision.

    The unnormalized values grow downward.  Every _RESCALE_STRIDE orders,
    a point whose |J_s| + |J_{s+1}| exceeds _RESCALE_LIMIT is scaled by
    the limit's inverse, a power of two, so a rescale rounds nothing.  One
    step grows max(|J_s|, |J_{s+1}|) by at most 2s/|z| + 1.  With |z| >=
    1e-6 (smaller z take the ascending series) and s <= MAX_ARGUMENT +
    _ORDER_PAD + 12, eight steps grow |J_s| + |J_{s+1}| by less than
    2 (2.01e10 + 1)^8 < 6e82; from at most the limit, 1.2e200, that stays
    below the double range (1.8e308).
    """
    z, scalar = _as_batch(z)
    az = np.abs(z)
    # Below this the two-term ascending series is exact to double precision
    # and the recurrence factor 2s/z would run out of exponent headroom.
    tiny = az < 1e-6
    two_over_z = 2.0 / np.where(tiny, 1.0, z)

    top = float(az.max(initial=0.0))
    start = max(s_max, int(np.ceil(top)) + _ORDER_PAD) + 12
    jp = np.zeros_like(two_over_z)
    jc = np.full_like(two_over_z, 1e-30)
    jm = np.empty_like(two_over_z)
    ratio = np.empty_like(two_over_z)
    out = np.empty((s_max + 1,) + z.shape, dtype=complex)
    norm = np.zeros_like(two_over_z)  # sum of the even orders >= 2
    # No complex product is written over one of its operands: numpy's
    # in-place complex multiply rounds differently on short arrays, and a
    # value must not depend on the batch it is computed in.
    for s in range(start, 0, -1):
        # A complex scalar takes numpy's fast path; its zero imaginary part
        # leaves the product exact, as a real s would.
        np.multiply(two_over_z, complex(s), out=ratio)
        np.multiply(ratio, jc, out=jm)
        jm -= jp
        jp, jc, jm = jc, jm, jp
        if s <= s_max + 1:
            out[s - 1] = jc
        if s % 2 and s > 1:
            norm += jc
        if s % _RESCALE_STRIDE == 0:
            mag = np.abs(jc)
            mag += np.abs(jp)
            if mag.max(initial=0.0) > _RESCALE_LIMIT:
                f = np.where(mag > _RESCALE_LIMIT, 1.0 / _RESCALE_LIMIT, 1.0)
                jc *= f
                jp *= f
                norm *= f
                out[s - 1 :] *= f
    norm *= 2.0
    norm += jc
    out *= 1.0 / norm  # a 2-D product: numpy rounds it alike for every batch width
    if tiny.any():
        # J_s(z) = (z/2)^s / s! (1 - q / (s + 1)), q = z^2 / 4, with (z/2)^s / s!
        # one cumulative product over the orders.
        zt = z[tiny]
        q = zt * zt / 4.0
        s = np.arange(1.0, s_max + 1)[:, None]
        out[0, tiny] = 1.0 - q
        out[1:, tiny] = np.cumprod((zt / 2.0) / s, axis=0) * (1.0 - q / (s + 1))
    return out[:, 0] if scalar else out


def _y01_from_sequence(z, seq, count=2):
    """Y_0 and Y_1 (the first count of them) via the logarithmic Neumann series over a J batch.

    z is 1-D and seq has shape (orders, z.size); seq must extend to order
    >= ceil(|z|) + 40 for full accuracy.  The sums S0 = sum_k c_k J_{2k}
    and S1 = sum_k c_k (J_{2k-1} - J_{2k+1}), c_k = (-1)^(k+1) / k, are
    two coefficient-vector products over the even and the odd orders.
    count = 1 skips Y_1, which overflows for |z| below about 3.5e-309.
    """
    z = np.asarray(z, dtype=complex)
    # z / 2 can round or underflow only below |z| = 2^-1021; there the
    # logarithm is log z - ln 2, and every other z keeps log(z / 2)'s bits.
    tiny = np.abs(z) < 2.0 ** -1021
    ell = np.log(np.where(tiny, z, z / 2.0))
    ell[tiny] -= math.log(2.0)
    ell += EULER_GAMMA
    kmax = (seq.shape[0] - 2) // 2
    k = np.arange(1.0, kmax + 1)
    c = np.where(k % 2, 1.0, -1.0) / k
    # einsum over real views: BLAS (matmul) rounds a column differently with
    # the batch's width, and a value must not depend on its batch.
    s0 = np.einsum("k,kp->p", c, seq[2 : 2 * kmax + 1 : 2].view(float)).view(complex)
    y0 = (2.0 / np.pi) * ell * seq[0] + (4.0 / np.pi) * s0
    if count == 1:
        return (y0,)
    d = np.append(c, 0.0) - np.append(0.0, c)  # S1's coefficient of J_1, J_3, ...
    s1 = np.einsum("k,kp->p", d, seq[1 : 2 * kmax + 2 : 2].view(float)).view(complex)
    y1 = (2.0 / np.pi) * ell * seq[1] - (2.0 / (np.pi * z)) * seq[0] - (2.0 / np.pi) * s1
    return y0, y1


def _hankel_asymptotic(z, nu, sign):
    """H_nu^(1/2)(z) by the large-argument expansion, 14 terms.

    sign = +1 gives H^(1), -1 gives H^(2).  nu in {0, 1}.
    """
    z = np.asarray(z, dtype=complex)
    mu = 4.0 * nu * nu
    term = np.ones_like(z)
    acc = np.ones_like(z)
    for k in range(1, 15):
        term = term * (sign * 1j) * (mu - (2 * k - 1) ** 2) / (8.0 * k * z)
        acc = acc + term
    phase = z - nu * np.pi / 2.0 - np.pi / 4.0
    return np.sqrt(2.0 / (np.pi * z)) * np.exp(sign * 1j * phase) * acc


def _check_nonzero(arr, name):
    if np.any(arr == 0):
        raise SingularityError("%s is singular at z = 0" % name)


def _split(z, near, far):
    """near(z[mask]) where |z| <= 25 and far(z[~mask]) above, merged into z's shape.

    Both callables take the selected entries (1-D) and return an array
    whose last axis runs over them; the leading axes carry over.
    """
    mask = np.abs(z) <= _SERIES_CUTOFF
    # An empty z runs both on nothing, which sizes the result's leading axes.
    parts = [(m, fn(z[m])) for m, fn in ((mask, near), (~mask, far)) if m.any() or not z.size]
    out = np.empty(parts[0][1].shape[:-1] + z.shape, dtype=complex)
    for m, values in parts:
        out[..., m] = values
    return out


def _near_batch(z, s_max):
    """Miller batch for |z| <= 25 through order max(s_max, ceil|z| + 42).

    Long enough for the Neumann series, so J and Y of the same argument
    come from one batch whichever function asks.
    """
    return _j_sequence(z, max(s_max, int(np.ceil(np.abs(z).max(initial=0.0))) + _ORDER_PAD + 2))


def bessel_j(s, z):
    """J_s(z) for integer order s, |s| <= 512, |z| <= 1e4.

    Negative orders reduce through J_{-s}(z) = (-1)^s J_s(z).  Accepts a
    scalar or an ndarray argument.
    """
    s = int(s)
    n = abs(s)
    if n > MAX_ORDER:
        raise DomainError("order |s| = %d exceeds the supported limit %d" % (n, MAX_ORDER))
    arr, scalar = _as_batch(z)
    val = _split(
        arr,
        lambda zn: _near_batch(zn, n)[n],
        lambda zf: (_j_sequence(zf, n)[n] if n >= 2 else
                    (_hankel_asymptotic(zf, n, +1) + _hankel_asymptotic(zf, n, -1)) / 2.0),
    )
    if s < 0 and s % 2:
        val = -val
    return complex(val[0]) if scalar else val


def bessel_y(s, z):
    """Y_s(z) for s in {0, 1}; z must be nonzero, |z| <= 1e4."""
    s = int(s)
    if s not in (0, 1):
        raise DomainError("bessel_y supports orders {0, 1}, got %d" % s)
    arr, scalar = _as_batch(z)
    _check_nonzero(arr, "Y_%d" % s)
    val = _split(
        arr,
        lambda zn: _y01_from_sequence(zn, _near_batch(zn, 1), s + 1)[s],
        lambda zf: (_hankel_asymptotic(zf, s, +1) - _hankel_asymptotic(zf, s, -1)) / 2j,
    )
    return complex(val[0]) if scalar else val


def hankel1_0(z):
    """H_0^(1)(z) = J_0(z) + i Y_0(z), order 0 of hankel1_sequence; z must be nonzero."""
    val = hankel1_sequence(z, 0)[0]
    return complex(val) if np.ndim(z) == 0 else val


def hankel1_sequence(z, s_max):
    """H_0^(1)(z)..H_{s_max}^(1)(z) by upward recurrence from H_0, H_1.

    Returns shape (s_max+1,) + z.shape; z must be nonzero.  H_0 and H_1
    (H_1 only for s_max >= 1) are bit-identical to J + iY below 25, own
    H^(1) expansion above: for |z| <= 25 both parts come from one Miller
    batch, and above 25 J + iY would cancel for Im z > 0.  Upward
    recurrence is stable for the Hankel function because the Y part
    dominates and grows with the order.
    """
    arr, scalar = _as_batch(z)
    _check_nonzero(arr, "H_s^(1)")
    low = min(s_max, 1) + 1

    def near(zn):
        seq = _near_batch(zn, 1)
        return seq[:low] + 1j * np.stack(_y01_from_sequence(zn, seq, low))

    out = np.empty((s_max + 1,) + arr.shape, dtype=complex)
    out[:low] = _split(
        arr, near, lambda zf: np.stack([_hankel_asymptotic(zf, s, +1) for s in range(low)])
    )
    for s in range(1, s_max):
        out[s + 1] = (2.0 * s / arr) * out[s] - out[s - 1]
    return out[:, 0] if scalar else out


# Segment width in |k| d, radians.  With the floor below, the nearest
# singularity (d = 0) sits 17 half-widths from the first segment's centre.
_TABLE_SEGMENT = 0.05
# Degree of each segment's interpolant.  Measured against hankel1_0 over
# |k| d in [0.4, 40] at lossy and lossless k: degree 7 stays at hankel1_0's
# own ~1e-13 (8.4e-14 at the floor); degree 6 reaches 3.4e-12 at the floor.
_TABLE_DEGREE = 7
# Below this |k| d the log singularity defeats the table; those distances
# (a few per mille of an imaging grid) go to hankel1_0.
_TABLE_FLOOR = 0.4


@dataclass(frozen=True, eq=False)
class DistanceTable:
    """H_0^(1)(k d) for real distances d: polynomial table on [lo, hi], exact values elsewhere.

    Built by hankel1_0_table.  coef holds one row per power of t, the
    offset in a segment scaled to [-1, 1], and one column per segment; a
    table with no segments (its range empty, NaN or out of range) sends
    every distance to hankel1_0.  The distances outside [lo, hi] (below
    the floor, d = 0, NaN) take their values from one hankel1_0 call per
    call of the table, so hankel1_0's errors are unchanged.
    """

    k: complex
    lo: float
    hi: float
    coef: np.ndarray

    def __call__(self, d):
        d = np.asarray(d, dtype=float)
        n, segments = self.coef.shape
        if not segments:
            return hankel1_0(self.k * d)
        rest = ~((d >= self.lo) & (d <= self.hi))
        # Horner over each distance's segment; the other distances are
        # evaluated at lo and overwritten with their exact values.
        u = d - self.lo
        u /= (self.hi - self.lo) / segments
        u[rest] = 0.0
        seg = u.astype(np.intp)
        np.minimum(seg, segments - 1, out=seg)
        u -= seg
        u *= 2.0
        u -= 1.0
        # u is now t.  Two complex buffers: work takes acc t, then acc takes c_m and the sum.
        # seg is in range; take's default mode would copy through a temporary.
        coef = self.coef
        acc = coef[n - 1].take(seg, mode="clip")
        work = np.empty_like(acc)
        for m in range(n - 2, -1, -1):
            np.multiply(acc, u, out=work)
            coef[m].take(seg, out=acc, mode="clip")
            acc += work
        if rest.any():
            acc[rest] = hankel1_0(self.k * d[rest])
        return acc


# Orders of the addition-theorem sum in hankel1_0_table.  Its term of order
# m is 2 H_m(k c) J_m(k e) for a node at offset e from its segment's centre
# c, largest against H_0(k c) at the table's floor: there |k e| <=
# _TABLE_SEGMENT / 2 = 0.025 and |k c| >= _TABLE_FLOOR + 0.025 = 0.425 bound
# |e| / |c| by 1/17, the term is about 2 (|e| / |c|)^m / (pi m), and |H_0(k
# c)| > 0.7 for a passive medium's k (arg k in [0, pi/4)).  The first
# dropped term, m = 17, is below 1e-22.
_GRAF_ORDERS = 16


def hankel1_0_table(k, lo, hi):
    """Table of H_0^(1)(k d) for distances d in [lo, hi], lo raised to the floor.

    Segments are _TABLE_SEGMENT wide in |k| d; the inverse Vandermonde matrix at
    the first-kind Chebyshev nodes takes node values to power-basis coefficients
    in t in [-1, 1].  The node values come from Graf's addition theorem in its
    collinear form (DLMF 10.23.7, https://dlmf.nist.gov/10.23): for |e| < |c|,
    H_0(k(c + e)) = H_0(k c) J_0(k e) + 2 sum_{m>=1} (-1)^m H_m(k c) J_m(k e),
    so one hankel1_sequence over the segment centres c and one J batch
    over the node offsets e, which every segment shares, give them all.
    The table has no segments (every distance exact) when the range is
    empty (hi below the floor), NaN or has |k| hi past MAX_ARGUMENT.
    """
    ak = abs(k)
    lo = max(float(lo), _TABLE_FLOOR / ak)
    hi = float(hi)
    n = _TABLE_DEGREE + 1
    if not (lo < hi and ak * hi <= MAX_ARGUMENT):  # empty, NaN or out of range
        return DistanceTable(k, lo, hi, np.empty((n, 0), dtype=complex))
    segments = math.ceil(ak * (hi - lo) / _TABLE_SEGMENT)
    nodes = np.cos(np.pi * (np.arange(n) + 0.5) / n)
    width = (hi - lo) / segments
    centres = lo + width * (np.arange(segments) + 0.5)
    # (orders, n): row m holds (-1)^m eps_m J_m(k e_i), eps_0 = 1, eps_m = 2.
    block = _j_sequence(k * (0.5 * width) * nodes, _GRAF_ORDERS)
    block[1::2] *= -2.0
    block[2::2] *= 2.0
    # (n, segments): power-basis coefficients, one row per power of t.
    power = np.linalg.inv(np.vander(nodes, increasing=True))
    coef = (power @ block.T) @ hankel1_sequence(k * centres, _GRAF_ORDERS)
    return DistanceTable(k, lo, hi, coef)


def _jacobi_anger_terms(x, theta, s_max, step=1):
    """J_0(x) and the harmonic sum 2 sum_{s = step, 2 step, ... <= s_max} i^s J_s(x) cos(s theta).

    x is an array of nonnegative reals; theta has shape x.shape + (A,),
    one angle per point and antenna.  Returns (J_0(x), harmonics) with
    harmonics shaped like theta.  One J batch serves every point; the sum
    runs order by order, so no points x antennas x orders array is built.
    step = 1 is the full expansion; an N-antenna ring average keeps step = N.
    """
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    seq = _j_sequence(x, s_max)
    harmonics = np.zeros(theta.shape, dtype=complex)
    for s in range(step, s_max + 1, step):
        harmonics += ((1, 1j, -1, -1j)[s % 4] * 2.0 * seq[s])[..., None] * np.cos(s * theta)
    return seq[0], harmonics
