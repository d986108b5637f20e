"""Synthetic scattering-matrix generators and measurement-style transforms.

Two data routes: the point-target product model (valid for small, weak
anomalies) and an exact separation-of-variables solution for a penetrable
disc, normalized so the two agree in the small-disc weak-contrast limit.
On top of those: diagonal contamination emulating antenna self-influence,
seeded complex Gaussian noise, and total-minus-incident subtraction.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import em
from .errors import (
    ConfigError,
    DomainError,
    GeometryError,
    KindError,
    ShapeError,
    SingularityError,
    TruncationError,
)
from .specfun import _j_sequence, hankel1_0, hankel1_sequence

KIND_FULL = "full"
KIND_ZERO_DIAGONAL = "zero_diagonal"

# How the conductivity jump is scaled inside the contrast bracket.
DENOM_SIGMA = "sigma_b"  # printed form: i (sigma* - sigma_b) / (w sigma_b)
DENOM_EPS = "eps_b"      # physical form: i (sigma* - sigma_b) / (w eps_b)

_DISC_ORDER_CAP = 512


@dataclass(frozen=True, eq=False)
class Anomaly:
    """Disc-shaped anomaly: center, radius, absolute material constants."""

    center: np.ndarray = field(repr=False)
    radius: float = 0.0
    eps_star: float = 0.0
    sigma_star: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if not self.radius > 0:
            raise ConfigError("anomaly radius must be > 0, got %r" % (self.radius,))
        if not self.eps_star > 0:
            raise ConfigError("anomaly eps_star must be > 0, got %r" % (self.eps_star,))
        if self.sigma_star < 0:
            raise ConfigError("anomaly sigma_star must be >= 0, got %r" % (self.sigma_star,))

    @classmethod
    def from_relative(cls, center, radius, permittivity_rel, conductivity):
        return cls(
            center=np.asarray(center, dtype=float),
            radius=float(radius),
            eps_star=permittivity_rel * em.VACUUM_PERMITTIVITY,
            sigma_star=float(conductivity),
        )


@dataclass(eq=False)
class ScatteringMatrix:
    """N x N scattered-field S-parameter matrix."""

    entries: np.ndarray
    kind: str
    provenance: str
    frequency_hz: float

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        if self.entries.ndim != 2 or self.entries.shape[0] != self.entries.shape[1]:
            raise ShapeError("scattering matrix must be square, got shape %r" % (self.entries.shape,))
        if self.kind not in (KIND_FULL, KIND_ZERO_DIAGONAL):
            raise KindError("unknown matrix kind %r" % (self.kind,))
        if self.kind == KIND_ZERO_DIAGONAL and np.any(np.diag(self.entries) != 0):
            raise KindError("zero_diagonal matrix carries nonzero diagonal entries")

    @property
    def size(self):
        return self.entries.shape[0]


def contrast_parameter(anomaly, medium, denominator=DENOM_SIGMA):
    """Material contrast bracket of the point-target model.

    The default scales the conductivity jump by (w sigma_b) as printed in
    the product formula; denominator="eps_b" selects the physically
    standard (w eps_b) scaling, which also survives sigma_b -> 0.
    """
    eps_term = (anomaly.eps_star - medium.eps_b) / medium.eps_b
    if denominator == DENOM_SIGMA:
        if medium.sigma_b == 0:
            raise DomainError(
                "conductivity contrast uses the sigma_b denominator but sigma_b = 0; "
                "select the eps_b denominator variant"
            )
        cond_term = (anomaly.sigma_star - medium.sigma_b) / (medium.omega * medium.sigma_b)
    elif denominator == DENOM_EPS:
        cond_term = (anomaly.sigma_star - medium.sigma_b) / (medium.omega * medium.eps_b)
    else:
        raise ConfigError("unknown contrast denominator %r" % (denominator,))
    return eps_term + 1j * cond_term


def born_smatrix(array, anomalies, medium, denominator=DENOM_SIGMA):
    """Point-target model: sum over anomalies of rank-one field products.

    S(m,n) = sum_j rho_j^2 (i k^2 pi / (4 w mu_b)) gamma_j
             E_inc(d_n, r_j) E_inc(d_m, r_j).
    """
    if isinstance(anomalies, Anomaly):
        anomalies = [anomalies]
    k = em.wavenumber(medium).k
    n = array.count
    out = np.zeros((n, n), dtype=complex)
    pref = 1j * k * k * math.pi / (4.0 * medium.omega * medium.mu_b)
    for anomaly in anomalies:
        dist = np.hypot(*(array.positions - anomaly.center[None, :]).T)
        if np.any(dist == 0.0):
            raise SingularityError("anomaly center coincides with an antenna position")
        gamma = contrast_parameter(anomaly, medium, denominator)
        w = -0.25j * hankel1_0(k * dist)
        out += anomaly.radius ** 2 * pref * gamma * np.outer(w, w)
    return ScatteringMatrix(out, KIND_FULL, "born", medium.frequency_hz)


def _interior_wavenumber(anomaly, medium):
    k2 = medium.omega ** 2 * medium.mu_b * complex(
        anomaly.eps_star, anomaly.sigma_star / medium.omega
    )
    return complex(np.sqrt(k2))


def exact_disc_smatrix(array, anomaly, medium, trunc=None, denominator=DENOM_SIGMA):
    """Cylindrical-harmonic solution for a penetrable disc lit by line sources.

    The transmission problem (continuity of the field and of its normal
    derivative at the rim) is solved per angular order; the scattered
    field at each receiver is rescaled to the same S-parameter convention
    as the point-target model, so the two generators agree entrywise in
    the small-disc weak-contrast limit.

    The order count starts at ceil(|k| rho) + margin and grows until the
    remaining tail is below tolerance (relative to the largest entry) or
    the order cap is hit, which raises with the achieved tail bound.
    """
    k = em.wavenumber(medium).k
    k_in = _interior_wavenumber(anomaly, medium)
    rho = anomaly.radius
    rel = array.positions - anomaly.center[None, :]
    b = np.hypot(rel[:, 0], rel[:, 1])
    if np.any(b <= rho):
        raise GeometryError("every antenna must lie outside the disc")
    alpha = np.arctan2(rel[:, 1], rel[:, 0])

    if anomaly.eps_star == medium.eps_b and anomaly.sigma_star == medium.sigma_b:
        # No contrast, no scattering; sidesteps the 0/0 in the rescaling.
        zeros = np.zeros((array.count, array.count), dtype=complex)
        return ScatteringMatrix(zeros, KIND_FULL, "exact_disc", medium.frequency_hz)

    margin = trunc.max_order if trunc is not None else 15
    tol = trunc.abs_tol if trunc is not None else 1e-10
    n_try = int(math.ceil(abs(k) * rho)) + margin

    gamma = contrast_parameter(anomaly, medium, denominator)
    scale = -(1j * k * k / (4.0 * medium.omega * medium.mu_b)) * gamma / (k_in * k_in - k * k)

    n_ant = array.count
    dalpha = alpha[:, None] - alpha[None, :]
    while True:
        j_out = _j_sequence(k * rho, n_try + 1)
        j_in = _j_sequence(k_in * rho, n_try + 1)
        h_out = hankel1_sequence(k * rho, n_try + 1)
        h_ant = hankel1_sequence(k * b, n_try)

        acc = np.zeros((n_ant, n_ant), dtype=complex)
        tail = math.inf
        converged_at = None
        for s in range(0, n_try + 1):
            jp_out = -j_out[1] if s == 0 else 0.5 * (j_out[s - 1] - j_out[s + 1])
            jp_in = -j_in[1] if s == 0 else 0.5 * (j_in[s - 1] - j_in[s + 1])
            hp_out = -h_out[1] if s == 0 else 0.5 * (h_out[s - 1] - h_out[s + 1])
            num = k_in * jp_in * j_out[s] - k * j_in[s] * jp_out
            den = k * j_in[s] * hp_out - k_in * jp_in * h_out[s]
            coeff = num / den
            hh = np.outer(h_ant[s], h_ant[s])
            if s == 0:
                term = coeff * hh
            else:
                term = coeff * hh * (2.0 * np.cos(s * dalpha))
            if not np.all(np.isfinite(term)):
                # Interior J underflow against exterior H overflow: the
                # geometry needs more orders than doubles can carry.
                raise TruncationError(
                    "disc series lost precision at order %d before converging; "
                    "achieved tail bound %.3e" % (s, tail)
                )
            acc += term
            tail = float(np.abs(term).max())
            ref = float(np.abs(acc).max())
            if s > abs(k) * rho and tail <= tol * max(ref, 1e-300):
                converged_at = s
                break
        if converged_at is not None:
            break
        if n_try >= _DISC_ORDER_CAP:
            raise TruncationError(
                "disc series not converged by order %d; achieved tail bound %.3e"
                % (n_try, tail)
            )
        n_try = min(_DISC_ORDER_CAP, int(n_try * 1.5) + 8)

    entries = scale * (-0.25j) * acc
    return ScatteringMatrix(entries, KIND_FULL, "exact_disc", medium.frequency_hz)


def contaminate_diagonal(s_matrix, amplitude_rel, mode="random", seed=0):
    """Add antenna self-influence to the diagonal.

    Each diagonal entry gains a term of magnitude amplitude_rel times the
    largest off-diagonal magnitude; constant mode uses one shared phase of
    pi/4, random mode draws one seeded uniform phase per antenna.
    Off-diagonal entries are untouched.
    """
    if s_matrix.kind != KIND_FULL:
        raise KindError("contaminate_diagonal expects a full-kind matrix")
    if amplitude_rel < 0:
        raise ConfigError("amplitude_rel must be >= 0, got %r" % (amplitude_rel,))
    n = s_matrix.size
    off = s_matrix.entries.copy()
    np.fill_diagonal(off, 0.0)
    level = amplitude_rel * float(np.abs(off).max())
    if mode == "constant":
        c = np.full(n, level * np.exp(1j * math.pi / 4.0))
    elif mode == "random":
        rng = np.random.default_rng(seed)
        c = level * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))
    else:
        raise ConfigError("unknown contamination mode %r" % (mode,))
    entries = s_matrix.entries.copy()
    entries[np.diag_indices(n)] += c
    return ScatteringMatrix(entries, KIND_FULL, s_matrix.provenance, s_matrix.frequency_hz)


def add_noise(s_matrix, snr_db, seed=0):
    """Seeded complex Gaussian perturbation at a fixed matrix-wide SNR.

    snr_db = +inf is the no-noise sentinel.  The perturbation is drawn
    entry-indexed in one vectorized call, so the result is bit-identical
    for a fixed seed regardless of evaluation order, and is rescaled so
    the realized sample SNR matches snr_db exactly.  Structural zeros of a
    zero-diagonal matrix stay exactly zero.
    """
    if math.isnan(snr_db):
        raise ConfigError("snr_db must be finite or +inf")
    if math.isinf(snr_db) and snr_db > 0:
        return ScatteringMatrix(
            s_matrix.entries.copy(), s_matrix.kind, s_matrix.provenance, s_matrix.frequency_hz
        )
    n = s_matrix.size
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if s_matrix.kind == KIND_ZERO_DIAGONAL:
        np.fill_diagonal(noise, 0.0)
    signal_power = float(np.sum(np.abs(s_matrix.entries) ** 2))
    noise_power = float(np.sum(np.abs(noise) ** 2))
    target = signal_power / (10.0 ** (snr_db / 10.0))
    noise *= math.sqrt(target / noise_power)
    return ScatteringMatrix(
        s_matrix.entries + noise, s_matrix.kind, s_matrix.provenance, s_matrix.frequency_hz
    )


def subtract(s_tot, s_inc):
    """Entrywise S_tot - S_inc; the measured-data route to S_scat."""
    if s_tot.entries.shape != s_inc.entries.shape:
        raise ShapeError(
            "shape mismatch: %r vs %r" % (s_tot.entries.shape, s_inc.entries.shape)
        )
    if s_tot.frequency_hz != s_inc.frequency_hz:
        raise ShapeError(
            "frequency mismatch: %r Hz vs %r Hz" % (s_tot.frequency_hz, s_inc.frequency_hz)
        )
    return ScatteringMatrix(
        s_tot.entries - s_inc.entries, KIND_FULL, "measured_subtracted", s_tot.frequency_hz
    )


def incident_coupling_smatrix(array, medium):
    """Antenna-to-antenna background coupling used as a synthetic S_inc.

    Off-diagonal entries are the homogeneous-medium line-source fields
    between antennas; the self terms, which the 2D model cannot represent,
    are set to zero.  Stands in for the anomaly-free measurement when
    synthesizing paired total/incident files.
    """
    k = em.wavenumber(medium).k
    n = array.count
    m, j = np.triu_indices(n, 1)
    dist = np.hypot(*(array.positions[m] - array.positions[j]).T)
    out = np.zeros((n, n), dtype=complex)
    out[m, j] = out[j, m] = -0.25j * hankel1_0(k * dist)
    return ScatteringMatrix(out, KIND_FULL, "incident_coupling", medium.frequency_hz)
