"""The experiment scripts print what they printed before they were built from RunConfig.

Each script runs as its own process, writing into a temporary directory;
the expected text is the scripts' recorded output, with run_localization's
elapsed seconds and every script's output directory masked.  The oracle
script must still print every constant that tests/oracle_values.py copies.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle_values as ov

ROOT = Path(__file__).resolve().parents[1]

EXPECTED = {
    "run_extended_disc.py": """\
smallness index 0.0866 vs lambda 0.0668 -> extended
diag map: argmax (0.0220, 0.0530), 0.0351 m from center, peak 0.7475, 100% of half-max points within lambda/2 of the disc
full map: argmax (0.0010, 0.0020), 0.0201 m from center, peak 0.9952, 96% of half-max points within lambda/2 of the disc
""",
    "run_frequency_sweep.py": """\
f_GHz  lambda_m  argmax_m              peak    FWHM_m
  0.5    0.1320  (+0.0100, +0.0300)  0.9984  0.0469
  0.8    0.0833  (+0.0100, +0.0300)  0.9983  0.0303
  1.0    0.0668  (+0.0100, +0.0300)  0.9983  0.0244
  1.2    0.0557  (+0.0100, +0.0300)  0.9983  0.0205
""",
    "run_localization.py": """\
diagonal-free map: argmax (0.0100, 0.0300) m, peak 0.9983, FWHM 0.0244 m, <elapsed> s
full-matrix map (M=16): argmax (-0.0640, -0.0640) m, peak 0.9650
true center (0.0100, 0.0300) m; outputs in <out>/
""",
    "run_noise_robustness.py": """\
snr_db  mean_offset_m  max_offset_m  mean_peak
  40.0         0.0000        0.0000     0.9983
  30.0         0.0000        0.0000     0.9982
  20.0         0.0000        0.0000     0.9977
  10.0         0.0000        0.0000     0.9920
   5.0         0.0000        0.0000     0.9784
""",
}


# Each `label = value` line of gen_oracle_values.py and the constant that copies it.
ORACLE = {
    "J0 zero 1": ov.J0_ZEROS[0], "J0 zero 2": ov.J0_ZEROS[1], "J0 zero 3": ov.J0_ZEROS[2],
    "Y0(1.0)": ov.Y0_AT_1, "J0(1.0)": ov.J0_AT_1, "H0_1(10)": ov.H0_AT_10, "J0(8.0)": ov.J0_AT_8,
    "x_half": ov.XHALF_J0SQ, "k": ov.K_PAPER, "2pi/Re k": ov.LAMBDA_PAPER,
    "k lossless": ov.K_LOSSLESS, "lambda ll": ov.LAMBDA_LOSSLESS, "S(1,2)": ov.S12_BORN,
    "psi spot": ov.PSI_SPOT, "small scn": ov.SMALLNESS_SMALL, "ext scn": ov.SMALLNESS_EXTENDED,
}


def _run(script, cwd, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True).stdout


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_run_script_stdout(name, tmp_path):
    out = tmp_path / "out"
    stdout = _run(ROOT / "scripts" / name, tmp_path, str(out)).replace(str(out), "<out>")
    stdout = re.sub(r", [0-9.]+ s$", ", <elapsed> s", stdout, flags=re.M)
    assert stdout.splitlines() == EXPECTED[name].splitlines()


def test_calibration_record_regenerates(tmp_path):
    # The script writes its record next to itself.
    script = tmp_path / "calibrate_born_vs_disc.py"
    shutil.copy(ROOT / "scripts" / "calibrate_born_vs_disc.py", script)
    _run(script, tmp_path)
    committed = (ROOT / "scripts" / "calibration_record.txt").read_bytes()
    assert (tmp_path / "calibration_record.txt").read_bytes() == committed


def test_oracle_values_regenerate(tmp_path):
    stdout = _run(ROOT / "scripts" / "gen_oracle_values.py", tmp_path)
    printed = dict(line.split("=", 1) for line in stdout.splitlines()
                   if "=" in line and not line.startswith("#"))
    printed = {label.strip(): complex(value.replace(" ", "")) for label, value in printed.items()}
    assert printed == ORACLE
