"""Closed-form structure of the imaging maps and its validation harness.

For a circular array the projection maps reduce, through the plane-wave
expansion into integer-order Bessel harmonics, to explicit series:

  full matrix      |(J_0(k|r-r*|) + Psi1_avg + artifact terms)^2|
  zero diagonal    N/(N-1) |(J_0(k|r-r*|) + Psi1_avg)^2
                            - (1/N)(J_0(2k|r-r*|) + Psi1_avg(2k))|

where Psi1_avg averages the two-sided harmonic series over the antennas.
The harness cross-checks the series against brute-force double sums of
plane-wave phases, which are the independent oracle: they involve nothing
but complex exponentials.

Points are numpy arrays of shape (2,) for one point (x, y) in metres or
(P, 2) for a batch of P points; the series functions return a float for
one point and an array of shape (P,) for a batch, evaluated with one
shared Bessel batch.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .forward import KIND_FULL, KIND_ZERO_DIAGONAL, ScatteringMatrix
from .specfun import SeriesTruncation, _jacobi_anger_terms


class ValidityMarginWarning(UserWarning):
    """A point sits closer to an antenna than the far-field margin allows."""


@dataclass(frozen=True)
class StructureConfig:
    """Truncation and optional artifact centers."""

    trunc: SeriesTruncation = SeriesTruncation()
    artifact_locations: tuple = ()

    def with_artifacts(self, locations):
        return StructureConfig(self.trunc, tuple(np.asarray(p, float) for p in locations))


def _harmonic_terms(k_real, angles, r, r_center, trunc):
    """J_0(x) and 2 sum_{s=1}^{S} i^s J_s(x) cos(s(theta - phi)) for each angle theta.

    x = k|r - rc| and phi is the polar angle of r - rc.  r is one point
    (2,) or a batch (P, 2); the J_0 part has shape () or (P,) and the
    harmonics carry one more axis over the angles.
    """
    delta = np.asarray(r, float) - np.asarray(r_center, float)
    phi = np.arctan2(delta[..., 1], delta[..., 0])
    return _jacobi_anger_terms(
        k_real * np.hypot(delta[..., 0], delta[..., 1]),
        np.asarray(angles, float) - phi[..., None],
        trunc.max_order,
    )


def _ring_average(k_real, array, r, r_center, trunc):
    """J_0(k|r-rc|) + Psi1_avg: the antenna average of the truncated plane-wave sum.

    r is one point (2,) or a batch (P, 2); the result has shape () or (P,).
    """
    j0, harmonics = _harmonic_terms(k_real, array.angles, r, r_center, trunc)
    return j0 + harmonics.mean(axis=-1)


def psi1(k_real, theta_n, r, r_center, trunc=SeriesTruncation()):
    """Two-sided harmonic series sum_{0<|s|<=S} i^s J_s(k|r-rc|) e^{is(theta_n - phi)}.

    phi is the polar angle of r - r_center; the value is 0 when r equals
    r_center because every J_s vanishes there.
    """
    return complex(_harmonic_terms(k_real, [theta_n], r, r_center, trunc)[1][0])


def _check_margin(r, array, k_real, r_star):
    margin = 10.0 * 0.25 / k_real
    pts = array.positions
    d_r = np.hypot(*(r[..., None, :] - pts).T).min(initial=np.inf)
    d_s = np.hypot(*(r_star - pts).T).min()
    if min(d_r, d_s) < margin:
        warnings.warn(
            "point within %.4g m of an antenna; far-field structure may degrade" % margin,
            ValidityMarginWarning,
            stacklevel=3,
        )


def _unwrap(values):
    return float(values) if values.ndim == 0 else values


def structure_full(r, array, k_real, r_star, config=StructureConfig()):
    """Closed-form value of the full-matrix map, artifact terms included.

    r is one point (2,), giving a float, or a batch (P, 2), giving (P,).
    """
    r = np.asarray(r, float)
    r_star = np.asarray(r_star, float)
    _check_margin(r, array, k_real, r_star)
    acc = _ring_average(k_real, array, r, r_star, config.trunc)
    for rm in config.artifact_locations:
        if np.hypot(*(np.asarray(rm, float) - r_star)) == 0.0:
            raise ConfigError("artifact locations must differ from the anomaly center")
        acc = acc + _ring_average(k_real, array, r, rm, config.trunc)
    return _unwrap(np.abs(acc * acc))


def structure_diag(r, array, k_real, r_star, config=StructureConfig()):
    """Closed-form value of the diagonal-free map.

    r is one point (2,), giving a float, or a batch (P, 2), giving (P,).
    """
    r = np.asarray(r, float)
    r_star = np.asarray(r_star, float)
    _check_margin(r, array, k_real, r_star)
    n = array.count
    g = _ring_average(k_real, array, r, r_star, config.trunc)
    h = _ring_average(2.0 * k_real, array, r, r_star, config.trunc)
    return _unwrap(n / (n - 1) * np.abs(g * g - h / n))


def plane_wave_test_vector(r, array, k_real):
    """Unit steering vector of the far-field (plane-wave) limit."""
    phases = array.directions @ np.asarray(r, dtype=float)
    w = np.exp(-1j * k_real * phases)
    return w / math.sqrt(array.count)


def ideal_plane_wave_matrix(array, k_real, r_star, kind=KIND_FULL, frequency_hz=0.0):
    """Rank-one plane-wave data (1/N) e^{-ik(theta_m + theta_n) . r*}.

    With kind=zero_diagonal the diagonal is dropped, reproducing the ideal
    diagonal-free matrix of the far-field limit.
    """
    phases = array.directions @ np.asarray(r_star, dtype=float)
    v = np.exp(-1j * k_real * phases)
    entries = np.outer(v, v) / array.count
    if kind == KIND_ZERO_DIAGONAL:
        np.fill_diagonal(entries, 0.0)
    return ScatteringMatrix(entries, kind, "ideal_plane_wave", frequency_hz)


def migration_response(s_matrix, array, k_real, points):
    """|W(r)* S conj(W(r))| with plane-wave steering, one value per point.

    This is the bilinear form the far-field derivation actually bounds:
    the data matrix sandwiched between steering vectors, singular pairs
    weighted by their singular values.  On ideal plane-wave data it equals
    tau_1 times the closed-form diagonal-free series.
    """
    pts = np.asarray(points, dtype=float)
    phases = pts @ array.directions.T
    w = np.exp(-1j * k_real * phases) / math.sqrt(array.count)
    return np.abs(np.einsum("pi,ij,pj->p", w.conj(), s_matrix.entries, w.conj()))


def _diag_identity(points, array, k_real, r_star, trunc):
    """validate_diag_identity's deviation over (P, 2) points, and the series it compared."""
    n = array.count
    e = np.exp(1j * k_real * ((points - r_star) @ array.directions.T))
    total = np.sum(e, axis=1) ** 2 - np.sum(e * e, axis=1)
    direct = np.abs(total / n) / (n - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityMarginWarning)
        series = structure_diag(points, array, k_real, r_star, StructureConfig(trunc=trunc))
    return float(np.max(np.abs(direct - series), initial=0.0)), series


def validate_diag_identity(points, array, k_real, r_star, trunc=SeriesTruncation()):
    """Max deviation of the closed-form series from the brute-force double sum.

    For each point the oracle value

        (1/(N-1)) | (1/N) sum_{m != n} e^{ik theta_m.(r-r*)} e^{ik theta_n.(r-r*)} |

    is computed directly from complex exponentials and compared with the
    series value; the maximum absolute difference over the points comes
    back.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    return _diag_identity(points, array, k_real, np.asarray(r_star, dtype=float), trunc)[0]


def validate(points, array, k_real, r_star, trunc=SeriesTruncation()):
    """(deviation, ratio_spread) of the diagonal-free series over (P, 2) points.

    deviation is validate_diag_identity's; ratio_spread is max - min of
    migration_response / series (tau_1 in exact arithmetic) on the ideal
    zero-diagonal data of r_star, where the series exceeds 1e-9.  One
    series pass serves both.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    r_star = np.asarray(r_star, dtype=float)
    deviation, series = _diag_identity(points, array, k_real, r_star, trunc)
    ideal = ideal_plane_wave_matrix(array, k_real, r_star, kind=KIND_ZERO_DIAGONAL)
    response = migration_response(ideal, array, k_real, points)
    keep = series > 1e-9
    ratios = response[keep] / series[keep]
    return deviation, float(ratios.max() - ratios.min())
