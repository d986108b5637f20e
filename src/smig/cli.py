"""Command-line pipeline: simulate | image | validate | spectrum.

Every run is driven by a key-value config (defaults = the Table-1 small
anomaly scenario) plus repeatable --override key=value flags.  Output
files carry a sidecar with the seeds and the config hash so runs can be
reproduced bit-exactly; an existing output file is replaced, not truncated.

image and spectrum read S_scat in the config's imaging.matrix_kind (the
diagonal is dropped for zero_diagonal) and leave the rank to
imaging.select_rank: spectrum's rank_selected is the rank_used of image.
Measured files (--stot, --sinc) must be at the config's medium.frequency_hz.
"""

import argparse
import os
import sys

import numpy as np

from . import config as cfgmod
from . import em, fileio, forward, imaging, structure
from .errors import ConfigError, DataError, SmigError


def _load_config(args):
    cfg = cfgmod.RunConfig()
    if args.config:
        with open(args.config, errors="replace") as fh:  # stray bytes fail as bad values
            cfg = cfgmod.parse_config(fh.read())
    if args.override:
        cfg = cfgmod.apply_overrides(cfg, args.override)
    if getattr(args, "seed", None) is not None:  # validate has no --seed
        cfg = cfgmod.with_seed(cfg, args.seed)
    return cfg


def _meta(cfg):
    return {
        "config_sha256": cfgmod.config_hash(cfg),
        "contamination_seed": cfg.synthesis.contamination_seed,
        "noise_seed": cfg.synthesis.noise_seed,
        "contamination_amplitude_rel": cfg.synthesis.contamination_amplitude_rel,
        "contamination_mode": cfg.synthesis.contamination_mode,
    }


def _scattered_matrix(cfg, args):
    """The measured (--stot minus --sinc) or synthetic S_scat, of the config's matrix kind."""
    if getattr(args, "stot", None) or getattr(args, "sinc", None):
        if not (args.stot and args.sinc):
            raise ConfigError("measured ingestion needs both --stot and --sinc")
        s_tot = fileio.read_sparams(args.stot)
        s_inc = fileio.read_sparams(args.sinc)
        scat = forward.subtract(s_tot, s_inc)
        if scat.frequency_hz != cfg.medium.frequency_hz:  # both round-trip exactly
            raise DataError("%s and %s are at %r Hz, the config's medium.frequency_hz at %r Hz"
                            % (args.stot, args.sinc, scat.frequency_hz, cfg.medium.frequency_hz))
    else:
        scat = cfgmod.build_scattered(cfg)
    if cfg.imaging.matrix_kind == forward.KIND_ZERO_DIAGONAL:
        scat = imaging.zero_diagonal(scat)
    return scat


def _out_dir(cfg, args):
    out = args.out or cfg.output.directory
    os.makedirs(out, exist_ok=True)
    return out


def _cmd_simulate(args):
    cfg = _load_config(args)
    out = _out_dir(cfg, args)
    medium = cfgmod.build_medium(cfg)
    array = cfgmod.build_array(cfg)
    scat = cfgmod.build_scattered(cfg)
    inc = forward.incident_coupling_smatrix(array, medium)
    tot = forward.ScatteringMatrix(
        inc.entries + scat.entries, forward.KIND_FULL, "synthetic_total", medium.frequency_hz
    )
    meta = _meta(cfg)
    paths = {}
    for name, matrix in (("scat", scat), ("tot", tot), ("inc", inc)):
        paths[name] = os.path.join(out, "sparams_%s.csv" % name)
        fileio.write_sparams(matrix, paths[name], meta=meta)
    print("wrote %s %s %s" % (paths["scat"], paths["tot"], paths["inc"]))
    return 0


def _cmd_image(args):
    cfg = _load_config(args)
    out = _out_dir(cfg, args)
    array = cfgmod.build_array(cfg)
    grid = cfgmod.build_grid(cfg)
    k = cfgmod.build_imaging_wavenumber(cfg)
    [image] = imaging.image([_scattered_matrix(cfg, args)], grid, array, k,
                            cfgmod.build_rank_policy(cfg))
    loc, peak = imaging.argmax(image)
    fmt = args.format or cfg.output.format
    meta = _meta(cfg)
    written = []
    for ext in fileio.MAP_FORMATS[fmt]:
        path = os.path.join(out, "map." + ext)
        fileio.write_map(image, path, ext, meta=meta)
        written.append(path)
    print(
        "argmax_x_m=%r argmax_y_m=%r peak=%r rank_used=%d files=%s"
        % (float(loc[0]), float(loc[1]), peak, image.rank_used, ",".join(written))
    )
    return 0


def _cmd_validate(args):
    cfg = _load_config(args)
    array = cfgmod.build_array(cfg)
    medium = cfgmod.build_medium(cfg)
    k_real = em.lossless_wavenumber(medium).k.real
    g = cfg.grid
    xs = np.linspace(g.x_min_m, g.x_max_m, 21)
    ys = np.linspace(g.y_min_m, g.y_max_m, 21)
    r_star = np.array([cfg.anomalies[0].center_x_m, cfg.anomalies[0].center_y_m])
    points = imaging.lattice(xs, ys)
    deviation, ratio_spread = structure.validate(points, array, k_real, r_star)
    print("max_identity_deviation=%r ratio_spread=%r" % (deviation, ratio_spread))
    if deviation > 1e-8 or ratio_spread > 1e-6:
        print("error: structure: oracle deviation above tolerance", file=sys.stderr)
        return 1
    return 0


def _cmd_spectrum(args):
    cfg = _load_config(args)
    out = _out_dir(cfg, args)
    decomp = imaging.svd(_scattered_matrix(cfg, args))
    m = imaging.select_rank(decomp, cfgmod.build_rank_policy(cfg))  # raises before any file
    path = os.path.join(out, "spectrum.csv")
    fileio.write_spectrum(decomp, path, meta=_meta(cfg))
    tau = decomp.singular_values
    print("rank_selected=%d tau_1=%r tau_2_ratio=%r file=%s"
          % (m, float(tau[0]), float(tau[1] / tau[0]) if tau.size > 1 else 0.0, path))
    return 0


def _add_options(p, name):
    p.add_argument("--config", help="key-value config file")
    p.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                   help="override one config key (repeatable)")
    p.add_argument("--out", help="output directory (default from config)")
    if name == "image":  # the one command that writes a map
        p.add_argument("--format", choices=tuple(fileio.MAP_FORMATS), help="map output format")
    if name != "validate":  # validate draws no random numbers
        p.add_argument("--seed", type=int, help="master seed for all random streams")
    if name in ("image", "spectrum"):
        p.add_argument("--stot", help="measured total-field S-parameter file")
        p.add_argument("--sinc", help="measured incident-field S-parameter file")


_COMMANDS = {
    "simulate": _cmd_simulate,
    "image": _cmd_image,
    "validate": _cmd_validate,
    "spectrum": _cmd_spectrum,
}


def build_parser(command=None):
    """The smig parser with only the subcommand `command` names, or with
    every subcommand when it names none."""
    parser = argparse.ArgumentParser(
        prog="smig",
        description="Scattering-matrix synthesis and subspace imaging pipeline",
    )
    named = command in _COMMANDS
    # A named command's parser still shows every command in its usage line.
    choices = {"metavar": "{%s}" % ",".join(_COMMANDS)} if named else {}
    sub = parser.add_subparsers(dest="command", required=True, **choices)
    for name, fn in _COMMANDS.items():
        if not named or name == command:
            p = sub.add_parser(name)
            p.set_defaults(fn=fn)
            _add_options(p, name)
    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.fn(args)
    except SmigError as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1
    except OSError as exc:
        print("error: io: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
