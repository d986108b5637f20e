"""S-parameter, map, and spectrum files.

S-parameters travel as CSV with a one-line header:

    # smig-sparams v1, N=16, f_hz=1000000000.0
    m,n,re,im

Values are written with the shortest round-trip decimal representation,
so write -> read is bit-exact; the header frequency must be 0 < f_hz < inf.
The writer formats only the parts reciprocity does not repeat (a part
below the diagonal whose bits equal its mirror's takes the mirror's text)
and emits one %-format per matrix row.  The reader converts a clean file
in one numpy pass and re-reads any other file row by row with Python's
int and float.  A faulty file is reported by its first faulty row in file
order (within a row: malformed, index out of range, duplicate,
non-finite), and a file without such rows by its missing entries.

Maps go out as x,y,value CSV, written one grid row at a time with one
%-format per row, or as binary P5 PGM (row 0 = y_max), each with a
sidecar of the map's frequency, kind, rank and maximum; spectra as
m,tau,ratio CSV.  Writers accept an optional meta mapping whose entries
(seed, config hash, ...) land in a sidecar next to the file.  Every
writer replaces an existing file with a new one (a symlink at the path is
replaced, not written through).
"""

import contextlib
import itertools
import math
import os
import re

import numpy as np

from .errors import ConfigError, DataError
from .forward import KIND_FULL, KIND_ZERO_DIAGONAL, ScatteringMatrix

_HEADER_RE = re.compile(r"#\s*smig-sparams\s+v1,\s*N=(\d+),\s*f_hz=([^\s,]+)")

# One data row of an S-parameter file, as np.loadtxt converts it.
_ROW = np.dtype([("m", np.intp), ("n", np.intp), ("re", float), ("im", float)])

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
    """Write an N x N matrix as the v1 CSV format; like the reader, finite
    values and a frequency 0 < f_hz < inf only."""
    if not np.all(np.isfinite(s_matrix.entries)):
        raise DataError("%s: refusing to write non-finite entries" % path)
    if not 0.0 < s_matrix.frequency_hz < math.inf:
        raise DataError("%s: refusing to write frequency %r, not 0 < f_hz < inf"
                        % (path, s_matrix.frequency_hz))
    n = s_matrix.size
    # Reciprocity repeats most text: a part below the diagonal whose bits
    # equal its transpose's takes that part's text (bits, not values: -0.0 ==
    # 0.0), and only the other parts are formatted.  index holds each part's
    # position among the formatted ones, in C order of (m, n, re|im).
    parts = np.ascontiguousarray(s_matrix.entries).view(float).reshape(n, n, 2)
    bits = parts.view(np.int64)
    copy = (bits == bits.transpose(1, 0, 2)) & np.tri(n, n, -1, dtype=bool)[:, :, None]
    index = np.cumsum(~copy).reshape(n, n, 2) - 1
    # Gathered through an object array: a list of 2N^2 Python ints as the
    # index would add about 100 MiB at N = 1024.
    texts = np.array(list(map(repr, parts[~copy].tolist())), dtype=object)
    texts = texts[np.where(copy, index.transpose(1, 0, 2), index)].reshape(n, 2 * n)
    # One % format per matrix row: the tails ",n,%s,%s\n" are built once and
    # a row's template is m + m.join(tails).
    tails = [",%d,%%s,%%s\n" % j for j in range(1, n + 1)]
    with _create(path) as fh:
        fh.write("# smig-sparams v1, N=%d, f_hz=%s\nm,n,re,im\n" % (n, _fmt(s_matrix.frequency_hz)))
        for m, row_texts in enumerate(texts, start=1):
            m = str(m)
            fh.write((m + m.join(tails)) % tuple(row_texts))
    if meta is not None:
        write_sidecar(path, meta)


def _clean_entries(rows, n):
    """The N x N entries of data rows converted in one numpy pass; ValueError
    unless the rows are exactly the N x N finite entries, once each."""
    if len(rows) != n * n:  # also keeps loadtxt from warning on no rows
        raise ValueError
    table = np.loadtxt(rows, dtype=_ROW, delimiter=",", comments=None, ndmin=1)
    ms, js = table["m"], table["n"]
    if not (1 <= ms.min() and ms.max() <= n and 1 <= js.min() and js.max() <= n):
        raise ValueError
    keys = ms * n + js - (n + 1)
    seen = np.zeros(n * n, dtype=bool)
    seen[keys] = True  # N x N rows in range cover every entry only without duplicates
    entries = np.empty(n * n, dtype=complex)
    entries.real[keys] = table["re"]
    entries.imag[keys] = table["im"]
    if not (seen.all() and np.isfinite(entries).all()):
        raise ValueError
    return entries.reshape(n, n)


def _row_entries(path, rows, n):
    """The N x N entries read row by row; raises the DataError of the first
    faulty row in file order, else of the missing entries."""
    values = {}
    for raw in rows:
        try:
            m, j, re_part, im_part = raw.strip().split(",")
            m, j, re_part, im_part = int(m), int(j), float(re_part), float(im_part)
        except ValueError:
            raise DataError("%s: malformed row %r" % (path, raw)) from None
        if not (1 <= m <= n and 1 <= j <= n):
            raise DataError("%s: index (%d,%d) outside 1..%d" % (path, m, j, n))
        if (m, j) in values:
            raise DataError("%s: duplicate entry (%d,%d)" % (path, m, j))
        if not (math.isfinite(re_part) and math.isfinite(im_part)):
            raise DataError("%s: non-finite value at (%d,%d)" % (path, m, j))
        values[m, j] = complex(re_part, im_part)
    if len(values) != n * n:
        missing = ((m, j) for m in range(1, n + 1) for j in range(1, n + 1)
                   if (m, j) not in values)
        raise DataError("%s: missing entries %s" % (path, list(itertools.islice(missing, 8))))
    return np.array([values[m, j] for m in range(1, n + 1) for j in range(1, n + 1)],
                    dtype=complex).reshape(n, n)


def read_sparams(path):
    """Read a v1 CSV file; demands complete N x N coverage, no duplicates,
    finite values and a header frequency 0 < f_hz < inf.

    A clean file is converted in one numpy pass.  Any other file (and one
    numpy will not parse, such as 1_0 or non-ASCII digits, which Python's
    int and float accept) is re-read row by row, which reports its first
    faulty row in file order (within a row: malformed, index out of range,
    duplicate (m, n), non-finite), or the missing entries of a file without
    such rows.
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
    if not 0.0 < f_hz < math.inf:
        raise DataError("%s: frequency in header %r is not 0 < f_hz < inf" % (path, lines[0]))
    if not n:
        raise DataError("%s: header says N=0" % path)
    if n * n >= len(lines):  # checked before the N x N allocation
        raise DataError("%s: header says N=%d, but the file has %d lines" % (path, n, len(lines)))
    rows = [raw for raw in lines[1:]
            if (line := raw.strip()) and not line.startswith(("#", "m,"))]
    entries = None
    with contextlib.suppress(ValueError):  # any fault: re-read row by row below
        entries = _clean_entries(rows, n)
    if entries is None:
        entries = _row_entries(path, rows, n)
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
    # One % format per grid row: each y is formatted once into a tail
    # ",y,%r\n", a row's template is x + x.join(tails), and one row of the
    # map is held as Python floats at a time (%r of a float is _fmt's repr).
    tails = ["," + _fmt(y) + ",%r\n" for y in image.grid.y_axis()]
    with _create(path) as fh:
        fh.write("x,y,value\n")
        for x, row in zip(image.grid.x_axis().tolist(), image.values):
            x = repr(x)
            fh.write((x + x.join(tails)) % tuple(row.tolist()))


def _write_map_pgm(image, path):
    values = image.values
    vmax = float(values.max())
    # Scaled, multiplied and rounded in one float buffer.
    scaled = np.zeros_like(values) if vmax == 0 else values / vmax
    scaled *= 255.0
    np.rint(scaled, out=scaled)
    # Image convention: first pixel row is y_max, columns run x_min -> x_max.
    pixels = scaled[:, ::-1].T.astype(np.uint8)
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
