"""The benchmark workloads: request generation and correctness checks.

Each workload is a closed loop with one client.  A request is the argv of
one or more ``smig`` calls.  Requests are drawn from a ``random.Random``
seeded with the workload name and the benchmark seed, so the same seed
gives the same requests; the program sees only the argv and its
``--override`` keys.  ``check`` returns None for a correct request and a
one-line reason otherwise.
"""

import math
import os
import random
from dataclasses import dataclass

import numpy as np

GRID_MIN = -0.1  # the default search grid is [-0.1, 0.1]^2 m


@dataclass
class Request:
    calls: list  # one argv per smig call
    center: tuple  # anomaly center, m
    out: str  # output directory


def draw_center(rng, radius):
    """Uniform point of the disc of the given radius around the origin."""
    r = radius * math.sqrt(rng.random())
    angle = 2.0 * math.pi * rng.random()
    return r * math.cos(angle), r * math.sin(angle)


def snap(value, step):
    """The grid coordinate nearest to value, computed as smig computes its axes."""
    return GRID_MIN + step * round((value - GRID_MIN) / step)


def overrides(pairs):
    argv = []
    for key, value in pairs.items():
        argv += ["--override", "%s=%s" % (key, value)]
    return argv


def parse_fields(stdout):
    """key=value tokens of the last line a smig command printed."""
    lines = stdout.strip().splitlines()
    return dict(tok.split("=", 1) for tok in lines[-1].split() if "=" in tok) if lines else {}


def call_error(results):
    for argv, (code, _, stderr) in results:
        if code != 0:
            return "smig %s exited %r: %s" % (argv[0], code, stderr.strip()[-200:])
    return None


def csv_map_peak(path):
    """First maximum of a map CSV (x,y,value rows in smig's row-major order)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    i = int(np.argmax(data[:, 2]))
    return (float(data[i, 0]), float(data[i, 1])), float(data[i, 2])


def read_sparams_csv(path):
    """N x N matrix of a smig-sparams v1 file, parsed here independently of smig."""
    rows = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    n = int(rows[:, 0].max())
    out = np.zeros((n, n), dtype=complex)
    out[rows[:, 0].astype(int) - 1, rows[:, 1].astype(int) - 1] = rows[:, 2] + 1j * rows[:, 3]
    return out


def check_localization(center, loc, peak, tol, min_peak):
    """Acceptance criterion 1: max coordinate offset <= tol and peak >= min_peak."""
    offset = max(abs(loc[0] - center[0]), abs(loc[1] - center[1]))
    if offset > tol or not peak >= min_peak:
        return "argmax %r is %.4g m from %r (<= %g), peak %.4g (>= %g)" % (
            loc, offset, center, tol, peak, min_peak)
    return None


def printed_peak(results):
    fields = parse_fields(results[0][1][1])
    return (float(fields["argmax_x_m"]), float(fields["argmax_y_m"])), float(fields["peak"])


class Table1Image:
    name = "table1_image"
    step = 0.001
    points = 201 * 201

    def request(self, rng, out):
        center = tuple(snap(c, self.step) for c in draw_center(rng, 0.06))
        argv = ["image", "--out", out, "--format", "csv", "--seed", str(rng.randrange(2 ** 32))]
        argv += overrides({"anomaly.1.center_x_m": repr(center[0]),
                           "anomaly.1.center_y_m": repr(center[1])})
        return Request([argv], center, out)

    def warmup(self, out):
        return [["image", "--out", out, "--format", "csv", "--override", "grid.step_m=0.01"]]

    def check(self, request, results):
        error = call_error(results)
        if error:
            return error
        loc, peak = printed_peak(results)
        file_loc, file_peak = csv_map_peak(os.path.join(request.out, "map.csv"))
        if (file_loc, file_peak) != (loc, peak):
            return "map.csv peak %r at %r, printed %r at %r" % (file_peak, file_loc, peak, loc)
        return check_localization(request.center, loc, peak, 0.002, 0.9)


class SynthValidate:
    name = "synth_validate"
    points = 0

    def request(self, rng, out):
        center = draw_center(rng, 0.06)
        common = overrides({"array.count": "32", "synthesis.generator": "exact_disc",
                            "anomaly.1.center_x_m": repr(center[0]),
                            "anomaly.1.center_y_m": repr(center[1])})
        calls = [
            ["simulate", "--out", out, "--seed", str(rng.randrange(2 ** 32))] + common,
            ["spectrum", "--stot", os.path.join(out, "sparams_tot.csv"),
             "--sinc", os.path.join(out, "sparams_inc.csv"), "--out", out] + common,
            ["validate"] + common,
        ]
        return Request(calls, center, out)

    def warmup(self, out):
        return self.request(random.Random(0), out).calls[:2]

    def check(self, request, results):
        error = call_error(results)
        if error:
            return error
        fields = parse_fields(results[2][1][1])
        deviation = float(fields["max_identity_deviation"])
        spread = float(fields["ratio_spread"])
        if not (deviation <= 1e-8 and spread <= 1e-6):
            return "validate deviation %.3g (<= 1e-8), ratio spread %.3g (<= 1e-6)" % (
                deviation, spread)
        tau_1 = float(parse_fields(results[1][1][1])["tau_1"])
        scat = read_sparams_csv(os.path.join(request.out, "sparams_scat.csv"))
        np.fill_diagonal(scat, 0.0)  # spectrum images zero-diagonal data by default
        ref = float(np.linalg.svd(scat, compute_uv=False)[0])
        if not abs(tau_1 - ref) <= 1e-9 * ref:
            return "spectrum tau_1 %r differs from SVD of S_scat %r" % (tau_1, ref)
        return None


WORKLOADS = {w.name: w for w in (Table1Image(), SynthValidate())}


def requests(workload, seed, out):
    """Endless request stream of one workload for one seed."""
    rng = random.Random("%s:%d" % (workload.name, seed))
    while True:
        yield workload.request(rng, out)
