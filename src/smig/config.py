"""Flat key-value run configuration with Table-1 small-anomaly defaults.

The on-disk format is one '<block>.<field> = value' per line, with '#'
comments; a block is a section name or anomaly.<i>, i = 1, 2, ...:

    medium.frequency_hz = 1.0e9
    anomaly.1.center_x_m = 0.01

Unknown keys are rejected, every key has a default, and
parse(serialize(c)) == c for every valid configuration.

Values are checked where they are used: parsing builds every domain
object once (build_*), so their constructors hold the range rules, and
an enum key accepts the tuple its consumer dispatches on (forward,
imaging, fileio).  Synthesis values are checked by the forward functions
that use them, when a run synthesizes.
"""

import hashlib
import math
import re
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import em, fileio, forward, imaging
from .errors import ConfigError, SmigError


def _choice(allowed, default):
    """A string field restricted to the values its consumer dispatches on."""
    def parse(text):
        if text not in allowed:
            raise ValueError("must be one of %s, got %r" % ("/".join(allowed), text))
        return text
    return field(default=default, metadata={"codec": (parse, str)})


@dataclass(frozen=True)
class MediumConfig:
    permittivity_rel: float = 20.0
    conductivity_s_per_m: float = 0.2
    frequency_hz: float = 1.0e9


@dataclass(frozen=True)
class ArrayConfig:
    count: int = 16
    radius_m: float = 0.09


@dataclass(frozen=True)
class AnomalyConfig:
    center_x_m: float = 0.01
    center_y_m: float = 0.03
    radius_m: float = 0.010
    permittivity_rel: float = 55.0
    conductivity_s_per_m: float = 1.2


@dataclass(frozen=True)
class GridConfig:
    x_min_m: float = -0.1
    x_max_m: float = 0.1
    y_min_m: float = -0.1
    y_max_m: float = 0.1
    step_m: float = 0.001


@dataclass(frozen=True)
class ImagingConfig:
    matrix_kind: str = _choice(forward.KINDS, forward.KIND_ZERO_DIAGONAL)
    rank_mode: str = _choice(imaging.RANK_MODES, "relative_threshold")
    rank_threshold: float = 0.02
    rank_fixed_m: int | None = None
    contrast_denominator: str = _choice(forward.DENOMINATORS, forward.DENOM_SIGMA)
    lossless_k: bool = False


@dataclass(frozen=True)
class SynthesisConfig:
    generator: str = _choice(forward.GENERATORS, "born")
    contamination_amplitude_rel: float = 5.0
    contamination_mode: str = _choice(forward.CONTAMINATION_MODES, "random")
    contamination_seed: int = 0
    noise_snr_db: float = math.inf
    noise_seed: int = 0


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "."
    format: str = _choice(fileio.MAP_FORMATS, "csv")


@dataclass(frozen=True)
class RunConfig:
    medium: MediumConfig = MediumConfig()
    array: ArrayConfig = ArrayConfig()
    anomalies: tuple = (AnomalyConfig(),)
    grid: GridConfig = GridConfig()
    imaging: ImagingConfig = ImagingConfig()
    synthesis: SynthesisConfig = SynthesisConfig()
    output: OutputConfig = OutputConfig()


# Overrides turning RunConfig into the Table-1 extended scenario: a 0.05 m
# disc, imaged from its exact disc-series data with a clean diagonal.
EXTENDED_DISC = ("anomaly.1.center_y_m=0.02", "anomaly.1.radius_m=0.05",
                 "anomaly.1.permittivity_rel=15", "anomaly.1.conductivity_s_per_m=0.5",
                 "synthesis.generator=exact_disc", "synthesis.contamination_amplitude_rel=0")


def _parse_bool(text):
    if text in ("true", "True"):
        return True
    if text in ("false", "False"):
        return False
    raise ValueError("expected true/false, got %r" % (text,))


def _parse_opt_int(text):
    return None if text in ("none", "None", "") else int(text)


# field type -> (parse, serialize); a _choice field carries its own pair.
_CODECS = {
    float: (float, repr),
    int: (int, repr),
    bool: (_parse_bool, lambda v: "true" if v else "false"),
    str: (str, str),
    int | None: (_parse_opt_int, lambda v: "none" if v is None else repr(v)),
}


def _codecs(cls):
    """{field name: (parse, serialize)} of a config block class, sorted by name."""
    return {f.name: f.metadata.get("codec") or _CODECS[f.type]
            for f in sorted(fields(cls), key=lambda f: f.name)}


_SECTIONS = {"medium": MediumConfig, "array": ArrayConfig, "grid": GridConfig,
             "imaging": ImagingConfig, "synthesis": SynthesisConfig, "output": OutputConfig}
_FIELDS = {cls: _codecs(cls) for cls in (*_SECTIONS.values(), AnomalyConfig)}
_ANOMALY_BLOCK = re.compile(r"anomaly\.([1-9][0-9]*)")


def _blocks(cfg):
    """(name, block) pairs: the sections by name, then anomaly.1, anomaly.2, ..."""
    return ([(name, getattr(cfg, name)) for name in sorted(_SECTIONS)]
            + [("anomaly.%d" % i, a) for i, a in enumerate(cfg.anomalies, start=1)])


def _pair(text, where):
    """(key, value) of one 'key = value', both stripped."""
    if "=" not in text:
        raise ConfigError("%s: expected key = value, got %r" % (where, text.strip()))
    key, value = text.split("=", 1)
    return key.strip(), value.strip()


def _apply_pairs(cfg, pairs):
    """cfg with every (<block>.<field>, text) pair parsed into its block, then checked."""
    blocks = {name: dict(vars(block)) for name, block in _blocks(cfg)}
    seen = set()
    for key, text in pairs:
        if key in seen:
            raise ConfigError("duplicate key %s" % key)
        seen.add(key)
        name, _, field_name = key.rpartition(".")
        cls = _SECTIONS.get(name) or (AnomalyConfig if _ANOMALY_BLOCK.fullmatch(name) else None)
        codec = _FIELDS.get(cls, {}).get(field_name)
        if codec is None:
            raise ConfigError("unknown key %s" % key)
        try:
            blocks.setdefault(name, dict(vars(cls())))[field_name] = codec[0](text)
        except ValueError as exc:
            raise ConfigError("%s: %s" % (key, exc)) from None
    indices = sorted(int(m.group(1)) for m in map(_ANOMALY_BLOCK.fullmatch, blocks) if m)
    if indices != list(range(1, len(indices) + 1)):
        raise ConfigError("anomaly indices must be contiguous from 1, got %s" % indices)
    cfg = RunConfig(anomalies=tuple(AnomalyConfig(**blocks["anomaly.%d" % i]) for i in indices),
                    **{name: cls(**blocks[name]) for name, cls in _SECTIONS.items()})
    # Each constructor holds its own range rules; building everything once
    # rejects a bad value now, with that constructor's typed error, named by
    # the block it came from.
    for i, a in enumerate(cfg.anomalies, start=1):
        _named("anomaly.%d" % i, _build_anomaly, a)
    _named("array", build_array, cfg)
    _named("grid", build_grid, cfg)
    _named("imaging", build_rank_policy, cfg)
    _named("medium", build_imaging_wavenumber, cfg)
    return cfg


def _named(prefix, build, arg):
    """build(arg), with a SmigError's message prefixed by its config block; same type."""
    try:
        build(arg)
    except SmigError as exc:
        raise type(exc)("%s: %s" % (prefix, exc)) from None


def parse_config(text):
    """Parse a key-value document; unset keys fall back to defaults."""
    return _apply_pairs(RunConfig(), (
        _pair(line, "line %d" % lineno) for lineno, raw in enumerate(text.splitlines(), start=1)
        if (line := raw.split("#", 1)[0].strip())))


def apply_overrides(cfg, overrides):
    """Apply repeatable key=value override strings on top of a config ('#' is no comment)."""
    return _apply_pairs(cfg, [_pair(item, "override") for item in overrides])


def serialize_config(cfg):
    """Canonical full-precision text form; inverse of parse_config."""
    return "".join("%s.%s = %s\n" % (name, field_name, fmt(getattr(block, field_name)))
                   for name, block in _blocks(cfg)
                   for field_name, (_, fmt) in _FIELDS[type(block)].items())


def config_hash(cfg):
    """Stable digest of the canonical serialization, for output sidecars."""
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()


def build_medium(cfg):
    return em.MediumParams.from_relative(
        cfg.medium.permittivity_rel, cfg.medium.conductivity_s_per_m, cfg.medium.frequency_hz
    )


def build_array(cfg):
    return em.antenna_array(cfg.array.count, cfg.array.radius_m)


def _build_anomaly(a):
    return forward.Anomaly.from_relative(
        (a.center_x_m, a.center_y_m), a.radius_m, a.permittivity_rel, a.conductivity_s_per_m
    )


def build_anomalies(cfg):
    return [_build_anomaly(a) for a in cfg.anomalies]


def build_grid(cfg):
    g = cfg.grid
    return imaging.ImagingGrid(g.x_min_m, g.x_max_m, g.y_min_m, g.y_max_m, g.step_m)


def build_rank_policy(cfg):
    policy = imaging.RankPolicy(
        mode=cfg.imaging.rank_mode,
        threshold=cfg.imaging.rank_threshold,
        fixed_m=cfg.imaging.rank_fixed_m,
    )
    # The diagonal-free map is the first singular pair by construction.
    if (cfg.imaging.matrix_kind == forward.KIND_ZERO_DIAGONAL and policy.mode == "fixed"
            and policy.fixed_m != 1):
        raise ConfigError("imaging.rank_fixed_m = %r contradicts imaging.matrix_kind = %s, "
                          "which images exactly one singular pair"
                          % (policy.fixed_m, cfg.imaging.matrix_kind))
    return policy


def build_imaging_wavenumber(cfg):
    medium = build_medium(cfg)
    if cfg.imaging.lossless_k:
        return em.lossless_wavenumber(medium)
    return em.wavenumber(medium)


def build_scattered(cfg):
    """Synthetic scattered-field matrix: generator, then diagonal contamination, then noise."""
    medium = build_medium(cfg)
    array = build_array(cfg)
    anomalies = build_anomalies(cfg)
    syn = cfg.synthesis
    denom = cfg.imaging.contrast_denominator
    if syn.generator == "born":
        scat = forward.born_smatrix(array, anomalies, medium, denominator=denom)
    else:
        entries = np.sum([forward.exact_disc_smatrix(array, a, medium, denominator=denom).entries
                          for a in anomalies], axis=0)
        scat = forward.ScatteringMatrix(entries, forward.KIND_FULL, "exact_disc", medium.frequency_hz)
    scat = forward.contaminate_diagonal(
        scat, syn.contamination_amplitude_rel, mode=syn.contamination_mode,
        seed=syn.contamination_seed,
    )
    return forward.add_noise(scat, syn.noise_snr_db, seed=syn.noise_seed)


def with_seed(cfg, seed):
    """Retarget both random streams at one master seed (CLI --seed)."""
    return replace(cfg, synthesis=replace(
        cfg.synthesis, contamination_seed=seed, noise_seed=seed
    ))
