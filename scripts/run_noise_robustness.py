#!/usr/bin/env python3
"""Localization robustness under measurement noise.

Adds seeded complex Gaussian noise to the uncontaminated Table-1 data at a
range of SNRs and tracks where the diagonal-free map peak lands and how
wide it gets.  Ten noise realizations per SNR, on a 0.002 m grid.

    python scripts/run_noise_robustness.py
"""

import numpy as np

from smig import config, imaging

SNRS_DB = (40.0, 30.0, 20.0, 10.0, 5.0)


def main():
    base = config.apply_overrides(config.RunConfig(), [
        "grid.step_m=0.002", "synthesis.contamination_amplitude_rel=0"])
    array, grid = config.build_array(base), config.build_grid(base)
    k = config.build_imaging_wavenumber(base)
    truth = config.build_anomalies(base)[0].center

    noisy = [imaging.zero_diagonal(config.build_scattered(config.with_seed(
        config.apply_overrides(base, ["synthesis.noise_snr_db=%r" % snr]), seed)))
        for snr in SNRS_DB for seed in range(10)]
    images = imaging.image(noisy, grid, array, k)  # all 50 maps from one sweep

    print("snr_db  mean_offset_m  max_offset_m  mean_peak")
    for i, snr in enumerate(SNRS_DB):
        offsets, peaks = [], []
        for image in images[10 * i:10 * i + 10]:
            loc, peak = imaging.argmax(image)
            offsets.append(np.hypot(*(loc - truth)))
            peaks.append(peak)
        print("%6.1f  %13.4f  %12.4f  %9.4f"
              % (snr, np.mean(offsets), np.max(offsets), np.mean(peaks)))


if __name__ == "__main__":
    main()
