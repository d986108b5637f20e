#!/usr/bin/env python3
"""Extended-anomaly imaging with the exact penetrable-disc generator.

The Table-1 extended scenario (radius 0.05 m, contrast below background)
is outside the point-model regime, so the data come from the
separation-of-variables disc solution.  Only the outline of the disc is
recoverable; the script reports how the half-max region covers it.

    python scripts/run_extended_disc.py [outdir]
"""

import os
import sys

import numpy as np

from smig import config, em, fileio, imaging

OUT = sys.argv[1] if len(sys.argv) > 1 else "out_extended"


def main():
    os.makedirs(OUT, exist_ok=True)
    cfg = config.apply_overrides(config.RunConfig(), config.EXTENDED_DISC)
    array, grid = config.build_array(cfg), config.build_grid(cfg)
    anomaly = config.build_anomalies(cfg)[0]
    k = config.build_imaging_wavenumber(cfg)
    lam = em.wavelength(k)

    print("smallness index %.4f vs lambda %.4f -> extended"
          % (em.smallness_index(anomaly.radius, anomaly.eps_star, config.build_medium(cfg)), lam))

    data = config.build_scattered(cfg)
    diag_map, full_map = imaging.image([imaging.zero_diagonal(data), data], grid, array, k,
                                       config.build_rank_policy(cfg))

    for name, image in (("diag", diag_map), ("full", full_map)):
        loc, peak = imaging.argmax(image)
        near, hot = imaging.half_max_near(image, anomaly.center, anomaly.radius, lam / 2.0)
        covered = near / max(1, hot)
        fileio.write_map(image, "%s/map_%s.pgm" % (OUT, name), "pgm")
        fileio.write_map(image, "%s/map_%s.csv" % (OUT, name), "csv")
        print("%s map: argmax (%.4f, %.4f), %.4f m from center, peak %.4f, "
              "%.0f%% of half-max points within lambda/2 of the disc"
              % (name, loc[0], loc[1], np.hypot(*(loc - anomaly.center)), peak,
                 100 * covered))


if __name__ == "__main__":
    main()
