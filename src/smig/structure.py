"""Closed-form structure of the imaging maps and its validation harness.

For a circular array and ideal plane-wave data of a point r*, the
plane-wave expansion into integer-order Bessel harmonics reduces two maps
to explicit series:

  structure_full   |(J_0(k|r-r*|) + Psi1_avg)^2|
  structure_diag   N/(N-1) |(J_0(k|r-r*|) + Psi1_avg)^2
                            - (1/N)(J_0(2k|r-r*|) + Psi1_avg(2k))|

where Psi1_avg averages the two-sided harmonic series over the antennas.
structure_full is the first-singular-pair map of either matrix kind, full
or zero-diagonal.  structure_diag is not a projection map: it is the
migration response of the zero-diagonal data divided by its tau_1.
The antennas are equally spaced (em.AntennaArray derives its angles), so
the ring mean of cos(s(theta_n - phi)), a sum of N unit phasors, vanishes
unless N divides s.  Psi1_avg keeps every N-th order, and is 0 if N > S:
    Psi1_avg = 2 sum_{s = N, 2N, ... <= S} i^s J_s(x) cos(s(theta_1 - phi)).
The harness cross-checks the series against brute-force double sums of
plane-wave phases, which are the independent oracle: they involve nothing
but complex exponentials, written out here rather than taken from
em.plane_wave_many, which gives the ideal data and migration steering.

Points are numpy arrays of shape (2,) for one point (x, y) in metres or
(P, 2) for a batch of P points; the series functions return a float for
one point and an array of shape (P,) for a batch, evaluated with one
shared Bessel batch.  With no truncation they size one to their largest
argument, k or 2k max|r - r*|; a given one short of it raises TruncationError.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import em, specfun
from .errors import DomainError
from .forward import KIND_FULL, KIND_ZERO_DIAGONAL, ScatteringMatrix


class ValidityMarginWarning(UserWarning):
    """A point sits closer to an antenna than the far-field margin allows."""


@dataclass(frozen=True)
class StructureConfig:
    """Series truncation of the closed-form maps; None sizes it to the series' reach."""

    trunc: specfun.SeriesTruncation | None = None


def _ring_average(k_real, array, r, r_center, trunc):
    """J_0(k|r-rc|) + Psi1_avg, the antenna average of the truncated plane-wave sum.

    Psi1_avg sums the orders N, 2N, ... <= S (module docstring).  r is one
    point (2,) or a batch (P, 2); the result has shape () or (P,).
    """
    delta = np.asarray(r, float) - np.asarray(r_center, float)
    x = k_real * np.hypot(delta[..., 0], delta[..., 1])
    theta = array.angles[0] - np.arctan2(delta[..., 1], delta[..., 0])
    j0, harmonics = specfun._jacobi_anger_terms(x, theta[..., None], trunc.max_order,
                                                step=array.count)
    return j0 + harmonics[..., 0]


def _check_margin(r, array, k_real, r_star):
    if not 0 < k_real < math.inf:
        raise DomainError("structure series need a wavenumber 0 < k < inf, got %r" % (k_real,))
    margin = 10.0 * 0.25 / k_real
    points = np.concatenate([np.reshape(r, (-1, 2)), np.reshape(r_star, (1, 2))])
    gap = points - array.positions[array.nearest(points)]
    if np.hypot(gap[:, 0], gap[:, 1]).min() < margin:
        warnings.warn(
            "point within %.4g m of an antenna; far-field structure may degrade" % margin,
            ValidityMarginWarning,
            stacklevel=4,  # past _prologue and the series to their caller
        )


def _prologue(r, array, k_real, r_star, config, factor):
    """The margin checked, the truncation of a series at factor * k for its
    largest argument factor * k max|r - r*|; r and r_star may be sequences."""
    _check_margin(r, array, k_real, r_star)
    reach = factor * k_real * np.hypot(*(np.reshape(r, (-1, 2)) - r_star).T)
    return specfun.covering_truncation(reach, config.trunc)


def _unwrap(values):
    return float(values) if values.ndim == 0 else values


def structure_full(r, array, k_real, r_star, config=StructureConfig()):
    """Closed-form first-pair map of ideal data, of either matrix kind.

    r is one point (2,), giving a float, or a batch (P, 2), giving (P,).
    """
    trunc = _prologue(r, array, k_real, r_star, config, 1.0)
    g = _ring_average(k_real, array, r, r_star, trunc)
    return _unwrap(np.abs(g * g))


def structure_diag(r, array, k_real, r_star, config=StructureConfig()):
    """Closed-form migration_response / tau_1 of ideal zero-diagonal data.

    This is not the first-pair map of that data, which is structure_full.
    r is one point (2,), giving a float, or a batch (P, 2), giving (P,).
    """
    trunc = _prologue(r, array, k_real, r_star, config, 2.0)
    n = array.count
    g = _ring_average(k_real, array, r, r_star, trunc)
    h = _ring_average(2.0 * k_real, array, r, r_star, trunc)
    return _unwrap(n / (n - 1) * np.abs(g * g - h / n))


def ideal_plane_wave_matrix(array, k_real, r_star, kind=KIND_FULL, frequency_hz=0.0):
    """Rank-one plane-wave data (1/N) e^{-ik(theta_m + theta_n) . r*}.

    With kind=zero_diagonal the diagonal is dropped, reproducing the ideal
    diagonal-free matrix of the far-field limit.
    """
    v = em.plane_wave_many(np.asarray(r_star, dtype=float)[None], array, k_real)[0]
    entries = np.outer(v, v) / array.count
    if kind == KIND_ZERO_DIAGONAL:
        np.fill_diagonal(entries, 0.0)
    return ScatteringMatrix(entries, kind, "ideal_plane_wave", frequency_hz)


def migration_response(s_matrix, array, k_real, points):
    """|W(r)* S conj(W(r))| with plane-wave steering, one value per point.

    This is the bilinear form the far-field derivation actually bounds:
    the data matrix sandwiched between steering vectors, singular pairs
    weighted by their singular values.  On ideal zero-diagonal plane-wave
    data it equals tau_1 times structure_diag.
    """
    w = em.plane_wave_many(np.asarray(points, dtype=float), array, k_real).conj()
    w /= math.sqrt(array.count)
    return np.abs(np.sum((w @ s_matrix.entries) * w, axis=1))


def validate_diag_identity(points, array, k_real, r_star, trunc=None):
    """Max deviation of the closed-form series from the brute-force double sum.

    For each point the oracle value

        (1/(N-1)) | (1/N) sum_{m != n} e^{ik theta_m.(r-r*)} e^{ik theta_n.(r-r*)} |

    is computed directly from complex exponentials and compared with the
    series value; the maximum absolute difference over the points comes
    back.  It is validate's deviation.
    """
    return validate(points, array, k_real, r_star, trunc)[0]


def validate(points, array, k_real, r_star, trunc=None):
    """(deviation, ratio_spread) of the diagonal-free series over (P, 2) points.

    deviation is validate_diag_identity's; ratio_spread is max - min of
    migration_response / series (tau_1 in exact arithmetic) on the ideal
    zero-diagonal data of r_star, where the series exceeds 1e-9, and 0.0
    where it exceeds it nowhere.  One series pass serves both.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    r_star = np.asarray(r_star, dtype=float)
    with warnings.catch_warnings():  # the series checks k_real first
        warnings.simplefilter("ignore", ValidityMarginWarning)
        series = structure_diag(points, array, k_real, r_star, StructureConfig(trunc=trunc))
    ideal = ideal_plane_wave_matrix(array, k_real, r_star, kind=KIND_ZERO_DIAGONAL)
    response = migration_response(ideal, array, k_real, points)
    # The oracle last: its (P, N) arrays held over migration_response's cost page faults.
    n = array.count
    e = np.exp(1j * k_real * ((points - r_star) @ array.directions.T))
    total = np.sum(e, axis=1) ** 2 - np.sum(e * e, axis=1)
    direct = np.abs(total / n) / (n - 1)
    deviation = float(np.max(np.abs(direct - series), initial=0.0))
    keep = series > 1e-9
    ratios = response[keep] / series[keep]
    return deviation, float(ratios.max() - ratios.min()) if ratios.size else 0.0
