"""Command-line pipeline: simulate | image | validate | spectrum.

Every run is driven by a key-value config (defaults = the Table-1 small
anomaly scenario) plus repeatable --override key=value flags.  Output
files carry a sidecar with the seeds and the config hash so runs can be
reproduced bit-exactly.
"""

import argparse
import os
import sys

import numpy as np

from . import config as cfgmod
from . import em, fileio, forward, imaging, structure
from .errors import SmigError
from .specfun import SeriesTruncation


def _load_config(args):
    cfg = cfgmod.RunConfig()
    if args.config:
        with open(args.config, errors="replace") as fh:  # stray bytes fail as bad values
            cfg = cfgmod.parse_config(fh.read())
    if args.override:
        cfg = cfgmod.apply_overrides(cfg, args.override)
    if args.seed is not None:
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
    if getattr(args, "stot", None) or getattr(args, "sinc", None):
        if not (args.stot and args.sinc):
            raise SmigError("measured ingestion needs both --stot and --sinc")
        s_tot = fileio.read_sparams(args.stot)
        s_inc = fileio.read_sparams(args.sinc)
        return forward.subtract(s_tot, s_inc)
    return cfgmod.build_scattered(cfg)


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
    scat = _scattered_matrix(cfg, args)
    if cfg.imaging.matrix_kind == forward.KIND_ZERO_DIAGONAL:
        data = imaging.zero_diagonal(scat)
        image = imaging.image_diag(data, grid, array, k)
    else:
        image = imaging.image_full(scat, grid, array, k, cfgmod.build_rank_policy(cfg))
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
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    points = np.stack([gx.ravel(), gy.ravel()], axis=1)
    deviation, ratio_spread = structure.validate(
        points, array, k_real, r_star, SeriesTruncation(max_order=64, abs_tol=1e-10)
    )
    print("max_identity_deviation=%r ratio_spread=%r" % (deviation, ratio_spread))
    if deviation > 1e-8 or ratio_spread > 1e-6:
        print("error: structure: oracle deviation above tolerance", file=sys.stderr)
        return 1
    return 0


def _cmd_spectrum(args):
    cfg = _load_config(args)
    out = _out_dir(cfg, args)
    scat = _scattered_matrix(cfg, args)
    if cfg.imaging.matrix_kind == forward.KIND_ZERO_DIAGONAL:
        scat = imaging.zero_diagonal(scat)
    decomp = imaging.svd(scat)
    path = os.path.join(out, "spectrum.csv")
    fileio.write_spectrum(decomp, path, meta=_meta(cfg))
    m = imaging.select_rank(decomp, cfgmod.build_rank_policy(cfg))
    tau = decomp.singular_values
    print("rank_selected=%d tau_1=%r tau_2_ratio=%r file=%s"
          % (m, float(tau[0]), float(tau[1] / tau[0]) if tau.size > 1 else 0.0, path))
    return 0


def _add_common(p):
    p.add_argument("--config", help="key-value config file")
    p.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                   help="override one config key (repeatable)")
    p.add_argument("--out", help="output directory (default from config)")
    p.add_argument("--format", choices=tuple(fileio.MAP_FORMATS), help="map output format")
    p.add_argument("--seed", type=int, help="master seed for all random streams")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="smig",
        description="Scattering-matrix synthesis and subspace imaging pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, measured in (
        ("simulate", _cmd_simulate, False),
        ("image", _cmd_image, True),
        ("validate", _cmd_validate, False),
        ("spectrum", _cmd_spectrum, True),
    ):
        p = sub.add_parser(name)
        _add_common(p)
        if measured:
            p.add_argument("--stot", help="measured total-field S-parameter file")
            p.add_argument("--sinc", help="measured incident-field S-parameter file")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
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
