"""S-parameter, map, and spectrum files.

S-parameters travel as CSV with a one-line header:

    # smig-sparams v1, N=16, f_hz=1000000000.0
    m,n,re,im

Values are written with the shortest round-trip decimal representation,
so write -> read is bit-exact.  The writer formats the whole body with one
%-format; the reader splits every data row, converts the fields column by
column, and runs the range, duplicate and finiteness checks on whole
arrays.  A faulty file is reported by its first faulty row in file order
(within a row: malformed, index out of range, duplicate, non-finite), and
a file without such rows by its missing entries.

Maps go out as x,y,value CSV or as binary P5 PGM (row 0 = y_max), each
with a sidecar of the map's frequency, kind, rank and maximum; spectra as
m,tau,ratio CSV.  Writers accept an optional meta mapping whose entries
(seed, config hash, ...) land in a sidecar next to the file.  Every
writer replaces an existing file with a new one (a symlink at the path is
replaced, not written through).
"""

import contextlib
import os
import re

import numpy as np

from .errors import ConfigError, DataError
from .forward import KIND_FULL, KIND_ZERO_DIAGONAL, ScatteringMatrix

_HEADER_RE = re.compile(r"#\s*smig-sparams\s+v1,\s*N=(\d+),\s*f_hz=([^\s,]+)")

# Map output formats and the file types each one writes.
MAP_FORMATS = {"csv": ("csv",), "pgm": ("pgm",), "both": ("csv", "pgm")}


def _fmt(x):
    return repr(float(x))


def _create(path, mode="w"):
    """Open path as a new file, removing any file already there: truncating a
    file that was just written can stall on its flush (about 60 ms on ext4)."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)
    return open(path, mode)


def write_sidecar(path, fields):
    with _create(str(path) + ".meta.txt") as fh:
        for key, value in fields.items():
            fh.write("%s = %s\n" % (key, value))


def write_sparams(s_matrix, path, meta=None):
    """Write an N x N matrix as the v1 CSV format; like the reader, finite values only."""
    if not np.all(np.isfinite(s_matrix.entries)):
        raise DataError("%s: refusing to write non-finite entries" % path)
    n = s_matrix.size
    # One "m,n,re,im" row per entry from one % format over a flat tuple;
    # tolist() yields Python floats, whose repr is _fmt's.
    args = [None] * (4 * n * n)
    args[0::4] = [m for m in range(1, n + 1) for _ in range(n)]
    args[1::4] = list(range(1, n + 1)) * n
    args[2::4] = s_matrix.entries.real.ravel().tolist()
    args[3::4] = s_matrix.entries.imag.ravel().tolist()
    with _create(path) as fh:
        fh.write("# smig-sparams v1, N=%d, f_hz=%s\nm,n,re,im\n" % (n, _fmt(s_matrix.frequency_hz)))
        fh.write("%d,%d,%r,%r\n" * (n * n) % tuple(args))
    if meta is not None:
        write_sidecar(path, meta)


def _parse_column(texts, kind):
    """kind(text) for each text up to the first that kind rejects, and that count."""
    try:
        return list(map(kind, texts)), len(texts)
    except ValueError:
        values = []
        for text in texts:
            try:
                values.append(kind(text))
            except ValueError:
                break
        return values, len(values)


def _first_out_of_range(indices, n):
    """Position of the first index outside 1..n, len(indices) if none."""
    if not indices or (min(indices) >= 1 and max(indices) <= n):
        return len(indices)
    return next(i for i, v in enumerate(indices) if not 1 <= v <= n)


def read_sparams(path):
    """Read a v1 CSV file; demands complete N x N coverage, no duplicates.

    The data rows are split and converted column by column, and the
    range, duplicate and finiteness checks run on whole arrays.  A file
    with faults reports the first faulty row in file order; within a row
    a malformed field comes first, then an index out of range, a
    duplicate (m, n), a non-finite value.  Missing entries are reported
    only for a file without such faults.
    """
    with open(path, errors="replace") as fh:  # stray bytes fail as malformed rows
        lines = fh.read().splitlines()
    if not lines or not (match := _HEADER_RE.match(lines[0])):
        raise DataError("%s: missing smig-sparams v1 header" % path)
    n = int(match.group(1))
    try:
        f_hz = float(match.group(2))
    except ValueError:
        raise DataError("%s: malformed header %r" % (path, lines[0])) from None
    if not n:
        raise DataError("%s: header says N=0" % path)
    if n * n >= len(lines):  # checked before the N x N allocation
        raise DataError("%s: header says N=%d, but the file has %d lines" % (path, n, len(lines)))
    rows = [raw for raw in lines[1:]
            if (line := raw.strip()) and not line.startswith(("#", "m,"))]
    fields = [raw.strip().split(",") for raw in rows]
    # Rows before the first malformed one: four fields that int/float accept.
    good = len(fields)
    if list(map(len, fields)).count(4) != good:
        good = next(i for i, row in enumerate(fields) if len(row) != 4)
    columns = list(zip(*fields[:good])) or [()] * 4
    parsed = []
    for column, kind in zip(columns, (int, int, float, float)):
        values, good = _parse_column(column[:good], kind)
        parsed.append(values)
    ms, js, re_parts, im_parts = (values[:good] for values in parsed)
    # Rows before the first index out of range; the remaining checks look at these.
    valid = min(_first_out_of_range(ms, n), _first_out_of_range(js, n))
    keys = np.array(ms[:valid], dtype=np.intp) * n + np.array(js[:valid], dtype=np.intp) - (n + 1)
    re_parts = np.array(re_parts[:valid], dtype=float)
    im_parts = np.array(im_parts[:valid], dtype=float)
    counts = np.bincount(keys, minlength=n * n)
    # Each check's first faulty row as (row, rank within a row, message);
    # the duplicate and finiteness checks only see rows before the others'.
    faults = []
    if good < len(rows):
        faults.append((good, 0, "malformed row %r" % (rows[good],)))
    if valid < good:
        faults.append((valid, 1, "index (%d,%d) outside 1..%d" % (ms[valid], js[valid], n)))
    if counts.max(initial=0) > 1:
        first = np.full(n * n, valid)
        np.minimum.at(first, keys, np.arange(valid))
        i = int(np.flatnonzero(first[keys] != np.arange(valid))[0])
        faults.append((i, 2, "duplicate entry (%d,%d)" % (ms[i], js[i])))
    finite = np.isfinite(re_parts) & np.isfinite(im_parts)
    if not finite.all():
        i = int(np.flatnonzero(~finite)[0])
        faults.append((i, 3, "non-finite value at (%d,%d)" % (ms[i], js[i])))
    if faults:
        raise DataError("%s: %s" % (path, min(faults)[2]))
    if valid != n * n:
        missing = [(int(k) // n + 1, int(k) % n + 1) for k in np.flatnonzero(counts == 0)[:8]]
        raise DataError("%s: missing entries %s" % (path, missing))
    entries = np.empty(n * n, dtype=complex)
    entries.real[keys] = re_parts
    entries.imag[keys] = im_parts
    entries = entries.reshape(n, n)
    kind = KIND_ZERO_DIAGONAL if np.all(np.diag(entries) == 0) else KIND_FULL
    return ScatteringMatrix(entries, kind, "file", f_hz)


def write_map(image, path, fmt="csv", meta=None):
    """Write an image map as CSV (full precision) or 8-bit P5 PGM, plus its sidecar."""
    if fmt == "csv":
        _write_map_csv(image, path)
    elif fmt == "pgm":
        _write_map_pgm(image, path)
    else:
        raise ConfigError("unknown map format %r" % (fmt,))
    _map_sidecar(image, path, meta)


def _map_sidecar(image, path, meta):
    """The map's run fields, then meta's entries, next to the map file."""
    fields = {
        "frequency_hz": _fmt(image.frequency_hz),
        "matrix_kind": image.matrix_kind,
        "rank_used": image.rank_used,
        "normalization_max": _fmt(image.values.max()),
    }
    if meta:
        fields.update(meta)
    write_sidecar(path, fields)


def _write_map_csv(image, path):
    # Each axis value is formatted once and one map row is held as text at
    # a time; tolist() yields Python floats, whose repr is _fmt's.
    ys = ["," + _fmt(y) + "," for y in image.grid.y_axis()]
    with _create(path) as fh:
        fh.write("x,y,value\n")
        for x, row in zip(image.grid.x_axis().tolist(), image.values.tolist()):
            x = repr(x)
            fh.write("".join([x + y + v + "\n" for y, v in zip(ys, map(repr, row))]))


def _write_map_pgm(image, path):
    values = image.values
    vmax = float(values.max())
    scaled = np.zeros_like(values) if vmax == 0 else values / vmax
    # Image convention: first pixel row is y_max, columns run x_min -> x_max.
    pixels = np.rint(255.0 * scaled[:, ::-1].T).astype(np.uint8)
    height, width = pixels.shape
    with _create(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (width, height))
        fh.write(pixels.tobytes())


def write_spectrum(svd_result, path, meta=None):
    """Write rows m, tau_m, tau_m/tau_1."""
    tau = svd_result.singular_values
    top = float(tau[0]) if tau.size else 0.0
    with _create(path) as fh:
        fh.write("m,tau,ratio\n")
        for m, value in enumerate(tau, start=1):
            ratio = float(value) / top if top > 0 else 0.0
            fh.write("%d,%s,%s\n" % (m, _fmt(value), _fmt(ratio)))
    if meta is not None:
        write_sidecar(path, meta)
