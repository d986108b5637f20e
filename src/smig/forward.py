"""Synthetic scattering-matrix generators and measurement-style transforms.

Two data routes: the point-target product model (valid for small, weak
anomalies) and an exact separation-of-variables solution for a penetrable
disc, normalized so the two agree in the small-disc weak-contrast limit.
On top of those: diagonal contamination emulating antenna self-influence,
seeded complex Gaussian noise, and total-minus-incident subtraction.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import em
from .errors import (
    ConfigError,
    DataError,
    DomainError,
    GeometryError,
    KindError,
    ShapeError,
    TruncationError,
)
from .specfun import _j_sequence, hankel1_0, hankel1_sequence

KIND_FULL = "full"
KIND_ZERO_DIAGONAL = "zero_diagonal"
KINDS = (KIND_FULL, KIND_ZERO_DIAGONAL)

# How the conductivity jump is scaled inside the contrast bracket.
DENOM_SIGMA = "sigma_b"  # printed form: i (sigma* - sigma_b) / (w sigma_b)
DENOM_EPS = "eps_b"      # physical form: i (sigma* - sigma_b) / (w eps_b)
DENOMINATORS = (DENOM_SIGMA, DENOM_EPS)

CONTAMINATION_MODES = ("constant", "random")
GENERATORS = ("born", "exact_disc")

# Past this |snr_db| signal or noise is below the other's double rounding
# (eps^2 is -313 dB), and 10^(snr/10) stays far inside the double range.
SNR_DB_LIMIT = 300.0

_DISC_ORDER_CAP = 512
_DISC_ORDER_MARGIN = 15
_DISC_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Anomaly:
    """Disc-shaped anomaly: center, radius, absolute material constants."""

    center: np.ndarray = field(repr=False)
    radius: float = 0.0
    eps_star: float = 0.0
    sigma_star: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if not (self.center.shape == (2,) and np.all(np.isfinite(self.center))
                and 0 < self.radius < math.inf and 0 < self.eps_star < math.inf
                and 0 <= self.sigma_star < math.inf):
            raise ConfigError("anomaly needs a finite center (x, y), radius > 0, eps_star > 0 "
                              "and sigma_star >= 0, got center %r, %r"
                              % (self.center.tolist(), self))

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
        if (self.entries.ndim != 2 or self.entries.shape[0] != self.entries.shape[1]
                or self.entries.size == 0):
            raise ShapeError("scattering matrix must be square and non-empty, got shape %r"
                             % (self.entries.shape,))
        if self.kind not in KINDS:
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


def _antenna_distances(array, anomaly):
    """Offsets and distances from the anomaly centre to every antenna.

    The geometry precondition of both generators: every antenna lies outside
    the disc by more than em.COINCIDENCE_RTOL of the array radius.
    """
    rel = array.positions - anomaly.center[None, :]
    dist = np.hypot(rel[:, 0], rel[:, 1])
    if np.any(em._coincident(dist - anomaly.radius, array.radius)):
        raise GeometryError("every antenna must lie outside the anomaly disc")
    return rel, dist


def born_smatrix(array, anomalies, medium, denominator=DENOM_SIGMA):
    """Point-target model: sum over anomalies of rank-one field products.

    S(m,n) = sum_j rho_j^2 (i k^2 pi / (4 w mu_b)) gamma_j
             E_inc(d_n, r_j) E_inc(d_m, r_j).
    """
    k = em.wavenumber(medium).k
    n = array.count
    out = np.zeros((n, n), dtype=complex)
    pref = 1j * k * k * math.pi / (4.0 * medium.omega * medium.mu_b)
    for anomaly in anomalies:
        _, dist = _antenna_distances(array, anomaly)
        gamma = contrast_parameter(anomaly, medium, denominator)
        w = -0.25j * hankel1_0(k * dist)
        out += anomaly.radius ** 2 * pref * gamma * np.outer(w, w)
    return ScatteringMatrix(out, KIND_FULL, "born", medium.frequency_hz)


def _derivative(seq):
    """C'_s = (C_{s-1} - C_{s+1}) / 2 for every order of seq but the last, with C_{-1} = -C_1."""
    return 0.5 * (np.concatenate(([-seq[1]], seq[:-2])) - seq[1:])


# Orders past the double range overflow; the loop turns the first non-finite
# term into TruncationError, so numpy's warnings would only repeat it.
@np.errstate(all="ignore")
def exact_disc_smatrix(array, anomaly, medium, denominator=DENOM_SIGMA):
    """Cylindrical-harmonic solution for a penetrable disc lit by line sources.

    The transmission problem (continuity of the field and of its normal
    derivative at the rim) is solved per angular order; the scattered
    field at each receiver is rescaled to the same S-parameter convention
    as the point-target model, so the two generators agree entrywise in
    the small-disc weak-contrast limit.

    The order count starts at ceil(|k| rho) + _DISC_ORDER_MARGIN and grows
    by x1.5 + 8 until the last term is below _DISC_TOL relative to the
    largest entry; past _DISC_ORDER_CAP orders it raises TruncationError
    with the achieved tail bound.
    """
    k = em.wavenumber(medium).k
    k_in = em.wavenumber(replace(medium, eps_b=anomaly.eps_star, sigma_b=anomaly.sigma_star)).k
    rho = anomaly.radius
    rel, b = _antenna_distances(array, anomaly)
    alpha = np.arctan2(rel[:, 1], rel[:, 0])

    if anomaly.eps_star == medium.eps_b and anomaly.sigma_star == medium.sigma_b:
        # No contrast, no scattering; sidesteps the 0/0 in the rescaling.
        zeros = np.zeros((array.count, array.count), dtype=complex)
        return ScatteringMatrix(zeros, KIND_FULL, "exact_disc", medium.frequency_hz)

    gamma = contrast_parameter(anomaly, medium, denominator)
    scale = -(1j * k * k / (4.0 * medium.omega * medium.mu_b)) * gamma / (k_in * k_in - k * k)

    dalpha = alpha[:, None] - alpha[None, :]
    n_try = int(math.ceil(abs(k) * rho)) + _DISC_ORDER_MARGIN
    while True:
        j_out = _j_sequence(k * rho, n_try + 1)
        j_in = _j_sequence(k_in * rho, n_try + 1)
        h_out = hankel1_sequence(k * rho, n_try + 1)
        h_ant = hankel1_sequence(k * b, n_try)
        jp_out, jp_in, hp_out = _derivative(j_out), _derivative(j_in), _derivative(h_out)

        acc = np.zeros((array.count, array.count), dtype=complex)
        tail = math.inf
        for s in range(n_try + 1):
            # Scalar arithmetic, one order at a time: numpy's vector complex
            # products round differently.
            num = k_in * jp_in[s] * j_out[s] - k * j_in[s] * jp_out[s]
            den = k * j_in[s] * hp_out[s] - k_in * jp_in[s] * h_out[s]
            coeff = num / den
            term = coeff * np.outer(h_ant[s], h_ant[s]) * ((2.0 if s else 1.0) * np.cos(s * dalpha))
            if not np.all(np.isfinite(term)):
                # Interior J underflow against exterior H overflow: the
                # geometry needs more orders than doubles can carry.
                reached = ("achieved tail bound %.3e" % tail if acc.any()
                           else "no earlier term was nonzero, so no tail bound was reached")
                raise TruncationError(
                    "disc series lost precision at order %d before converging; %s" % (s, reached))
            acc += term
            tail = float(np.abs(term).max())
            ref = float(np.abs(acc).max())
            if s > abs(k) * rho and tail <= _DISC_TOL * max(ref, 1e-300):
                return ScatteringMatrix(scale * (-0.25j) * acc, KIND_FULL, "exact_disc",
                                        medium.frequency_hz)
        if n_try >= _DISC_ORDER_CAP:
            raise TruncationError(
                "disc series not converged by order %d; achieved tail bound %.3e"
                % (n_try, tail)
            )
        n_try = min(_DISC_ORDER_CAP, int(n_try * 1.5) + 8)


def _rng(seed):
    """The random stream of one seed; seeds are integers >= 0."""
    if not seed >= 0:
        raise ConfigError("seeds must be integers >= 0, got %r" % (seed,))
    return np.random.default_rng(seed)


def contaminate_diagonal(s_matrix, amplitude_rel, mode="random", seed=0):
    """Add antenna self-influence to the diagonal.

    Each diagonal entry gains a term of magnitude amplitude_rel times the
    largest off-diagonal magnitude; constant mode uses one shared phase of
    pi/4, random mode draws one seeded uniform phase per antenna.
    Off-diagonal entries are untouched.
    """
    if s_matrix.kind != KIND_FULL:
        raise KindError("contaminate_diagonal expects a full-kind matrix")
    if not 0 <= amplitude_rel < math.inf:
        raise ConfigError("amplitude_rel must be finite and >= 0, got %r" % (amplitude_rel,))
    n = s_matrix.size
    off = s_matrix.entries.copy()
    np.fill_diagonal(off, 0.0)
    level = amplitude_rel * float(np.abs(off).max())
    if mode == "constant":
        c = np.full(n, level * np.exp(1j * math.pi / 4.0))
    elif mode == "random":
        rng = _rng(seed)
        c = level * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))
    else:
        raise ConfigError("unknown contamination mode %r" % (mode,))
    entries = s_matrix.entries.copy()
    entries[np.diag_indices(n)] += c
    return replace(s_matrix, entries=entries)


def add_noise(s_matrix, snr_db, seed=0):
    """Seeded complex Gaussian perturbation at a fixed matrix-wide SNR.

    snr_db = +inf is the no-noise sentinel; finite values lie within
    +-SNR_DB_LIMIT.  The perturbation is drawn entry-indexed in one
    vectorized call, so the result is bit-identical for a fixed seed
    regardless of evaluation order, and is rescaled so the realized
    sample SNR matches snr_db exactly.  Structural zeros of a
    zero-diagonal matrix stay exactly zero.
    """
    if snr_db == math.inf:
        return replace(s_matrix, entries=s_matrix.entries.copy())
    if not -SNR_DB_LIMIT <= snr_db <= SNR_DB_LIMIT:
        raise ConfigError("snr_db must be +inf or lie in [-%g, %g], got %r"
                          % (SNR_DB_LIMIT, SNR_DB_LIMIT, snr_db))
    n = s_matrix.size
    rng = _rng(seed)
    noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if s_matrix.kind == KIND_ZERO_DIAGONAL:
        np.fill_diagonal(noise, 0.0)
    with np.errstate(over="ignore"):
        signal_power = float(np.sum(np.abs(s_matrix.entries) ** 2))
    if not signal_power < math.inf:
        raise DataError("signal power is not finite; no noise level can be set against it")
    noise_power = float(np.sum(np.abs(noise) ** 2))
    if noise_power == 0:
        raise DataError("a %d x %d %s matrix has no entry that can carry noise"
                        % (n, n, s_matrix.kind))
    target = signal_power / (10.0 ** (snr_db / 10.0))
    noise *= math.sqrt(target / noise_power)
    return replace(s_matrix, entries=s_matrix.entries + noise)


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
    dist = np.hypot(*(array.positions[m] - array.positions[j]).T).tolist()
    # A ring repeats most pair distances bit for bit (7,017 distinct of
    # 523,776 at N = 1024): each distinct one is evaluated once, in order of
    # first appearance.  The batch keeps its largest argument, so hankel1_0's
    # Miller start, and each value, is the one of the batch of all pairs.
    index = {}
    pair = [index.setdefault(d, len(index)) for d in dist]
    out = np.zeros((n, n), dtype=complex)
    out[m, j] = out[j, m] = (-0.25j * hankel1_0(k * np.array(list(index))))[pair]
    return ScatteringMatrix(out, KIND_FULL, "incident_coupling", medium.frequency_hz)
