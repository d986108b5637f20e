#!/usr/bin/env python3
"""Resolution-vs-frequency sweep for the diagonal-free map.

Images the Table-1 small anomaly at several frequencies and tabulates the
peak half-max width: higher frequency narrows the peak (finer resolution).

    python scripts/run_frequency_sweep.py [outdir]
"""

import os
import sys

from smig import config, em, fileio, imaging

OUT = sys.argv[1] if len(sys.argv) > 1 else "out_sweep"
FREQS_GHZ = (0.5, 0.8, 1.0, 1.2)


def main():
    os.makedirs(OUT, exist_ok=True)
    base = config.RunConfig()
    array, grid = config.build_array(base), config.build_grid(base)

    print("f_GHz  lambda_m  argmax_m              peak    FWHM_m")
    for f in FREQS_GHZ:
        cfg = config.apply_overrides(base, ["medium.frequency_hz=%r" % (f * 1e9)])
        k = config.build_imaging_wavenumber(cfg)
        data = imaging.zero_diagonal(config.build_scattered(cfg))
        image = imaging.image_diag(data, grid, array, k)
        loc, peak = imaging.argmax(image)
        res = imaging.fwhm(image, loc)
        lam = em.wavelength(k)
        fileio.write_map(image, "%s/map_%.1fGHz.pgm" % (OUT, f), "pgm")
        print("%5.1f  %8.4f  (%+.4f, %+.4f)  %.4f  %.4f%s"
              % (f, lam, loc[0], loc[1], peak, res.width,
                 "  [half-max region hits grid edge]" if res.touches_boundary else ""))


if __name__ == "__main__":
    main()
