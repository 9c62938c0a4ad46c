"""Deterministic serialization: byte-stable JSON and fixed-format CSV.

The standard json module does not expose float formatting, so reports go
through a small emitter of our own: keys keep insertion order, floats print
with 17 significant digits ('.' decimal, no locale), which round-trips
float64 exactly.  Identical config + identical version => byte-identical
bytes out.

Numeric CSV tables are formatted ``CSV_BLOCK_ROWS`` rows at a time, one
``%`` operation per block, cell for cell the same text as
:func:`_fmt_float`; a float cell that is exactly +0.0 or -0.0 is literal
text in its row's template and costs no formatting.  A table of several
blocks is split into contiguous block ranges by :func:`sispace.forks.split`,
and :func:`sispace.forks.run_ranges` formats them: this process the first
range into the file, a forked child each further range into a hidden part
file beside it, which the parent appends in order.  Each range goes through
the same formatter in the same blocks, so the bytes are those of one
worker, and the part files are removed on every path.  Each writer checks
its values, then creates the path it is given; :func:`staged_paths` makes a
command's outputs visible, all of them at once.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil
import warnings
from pathlib import Path

import numpy as np

from . import forks
from .grid import FrequencyGrid, SampledSignal, SampledSpectrum

FLOAT_FMT = ".17g"
NON_FINITE = "reports must not contain NaN or infinity"
CSV_BLOCK_ROWS = 1 << 14
# below this an integral float prints in fixed notation under FLOAT_FMT, with no '.'
_FIXED_INTEGRAL_LIMIT = 1e17


def _fmt_float(x):
    if math.isnan(x) or math.isinf(x):
        raise ValueError(NON_FINITE)
    s = format(float(x), FLOAT_FMT)
    # keep a float marker so round-tripped types stay stable
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


def dumps_deterministic(obj, indent=0):
    """JSON text with fixed key order and 17-significant-digit floats."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None or isinstance(obj, bool):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [dumps_deterministic(v, indent + 2) for v in obj]
        if not items:
            return "[]"
        return "[\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        items = []
        for k, v in obj.items():
            items.append(f'{inner}{json.dumps(str(k))}: {dumps_deterministic(v, indent + 2)}')
        if not items:
            return "{}"
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r} deterministically")


@contextlib.contextmanager
def staged_paths(*paths):
    """One temp path next to each of ``paths``, in its directory (created as
    the block is entered) so ``os.replace`` stays on one file system; when the
    block exits, each temp file replaces its path, in order.  No path is
    replaced before the block has completed every temp file, so the files of
    one command never mix two runs; on any exception the temp files are
    removed and the paths are left as they were."""
    paths = [Path(p) for p in paths]
    for p in paths:
        p.parent.mkdir(parents=True, exist_ok=True)
    tmps = [p.with_name(f".{p.name}.{os.urandom(8).hex()}.tmp") for p in paths]
    try:
        yield tmps
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        raise


def write_report(path, obj):
    # rendered before the file is opened: a value that cannot be written leaves no file
    text = dumps_deterministic(obj) + "\n"
    with open(path, "x") as fh:
        fh.write(text)


def _write_csv(path, header, kinds, *columns):
    """CSV of numeric columns, formatted ``CSV_BLOCK_ROWS`` rows per ``%``.

    ``kinds`` has one letter per CSV column: ``i`` the row index, ``d`` an
    integer column, ``g`` a float column printed as :func:`_fmt_float` does.
    ``columns`` are the ``d`` and ``g`` columns in order.  Every float is
    checked before the file is opened.  This process writes the first block
    range into ``path``, each forked child its range into a hidden part file
    beside it, and the parts are appended in order.
    """
    columns = [np.asarray(c, dtype=int if kind == "d" else float)
               for kind, c in zip(kinds.replace("i", ""), columns)]
    if not all(np.isfinite(c).all() for c in columns):
        raise ValueError(NON_FINITE)
    n_rows = columns[0].size
    floats = [j for j, kind in enumerate(kinds) if kind == "g"]
    # one row template per pattern of float cell states, base 4 (digit b: float b):
    # 0 general, 1 integral, 2 and 3 +0.0 and -0.0, written as text with no argument
    templates = []
    for code in range(4 ** len(floats)):
        cells = ["%d"] * len(kinds)
        for b, j in enumerate(floats):
            cells[j] = ("%.17g", "%.1f", "0.0", "-0.0")[code // 4 ** b % 4]
        templates.append(",".join(cells) + "\n")
    templates = np.array(templates, dtype=object)
    weights = 4 ** np.arange(len(floats))
    data = iter(columns)
    sources = [None if kind == "i" else next(data) for kind in kinds]

    def write_blocks(fh, first, last):   # rows first..last-1, from a block's first row
        for start in range(first, last, CSV_BLOCK_ROWS):
            stop = min(start + CSV_BLOCK_ROWS, n_rows)
            # integer cells ride as float64 too: exact below 2^53, printed by %d
            block = np.empty((stop - start, len(kinds)))
            for j, src in enumerate(sources):
                block[:, j] = np.arange(start, stop) if src is None else src[start:stop]
            cells = block[:, floats]
            zero = cells == 0.0
            state = (np.trunc(cells) == cells) & (np.abs(cells) < _FIXED_INTEGRAL_LIMIT)
            state = state + zero * (1 + np.signbit(cells))
            template = "".join(templates[state @ weights].tolist())
            keep = np.ones(block.shape, dtype=bool)
            keep[:, floats] = ~zero
            fh.write(template % tuple(block[keep].tolist()))

    bounds = [*range(0, n_rows, CSV_BLOCK_ROWS), n_rows]
    cuts = forks.split(bounds)
    parts = [f"{path}.{w}.part" for w in range(1, len(cuts) - 1)]
    files = dict(zip(cuts, [path, *parts]))

    def write_range(first, last):   # blocks first..last-1; the first range after the header
        with open(files[first], "x") as fh:
            if first == 0:
                fh.write(",".join(header) + "\n")
            write_blocks(fh, bounds[first], bounds[last])

    try:
        forks.run_ranges(write_range, cuts)
        with open(path, "ab") as fh:
            for part in parts:
                with open(part, "rb") as src:
                    shutil.copyfileobj(src, fh)
    finally:
        for part in parts:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(part)


def _write_samples_csv(path, axis_name, axis, values):
    values = np.asarray(values)
    _write_csv(path, ("index", axis_name, "re", "im"), "iggg", axis, values.real, values.imag)


def write_spectrum_csv(path, spectrum: SampledSpectrum):
    _write_samples_csv(path, "xi", spectrum.grid.xi, spectrum.values)


def write_signal_csv(path, signal: SampledSignal):
    _write_samples_csv(path, "x", signal.grid.x, signal.values)


def write_periodization_csv(path, profile):
    _write_csv(path, ("index", "xi", "G", "excluded"), "iggd",
               profile.residues, profile.values, profile.excluded)


def write_windows_csv(path, verdict):
    increments = (verdict.partials[0],) + tuple(verdict.tail_increments)
    _write_csv(path, ("T", "partial", "increment"), "ggg",
               verdict.windows, verdict.partials, increments)


def _cell(v):
    if isinstance(v, (float, np.floating)):
        return _fmt_float(v)
    return str(v)


def write_compare_csv(path, header, rows):
    """CSV of ``header`` and ``rows``; a cell that holds a comma, a quote or a
    line break is quoted, as :mod:`csv` reads it back."""
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(
        [_cell(v) for v in row] for row in [header, *rows])
    with open(path, "x") as fh:
        fh.write(text.getvalue())


def _unreadable_row(path):
    """The first row after the header that ``np.loadtxt`` cannot read, counted
    from 1 as it counts rows (blank and ``#`` lines skipped), bisected."""
    rows = [row for row in Path(path).read_bytes().splitlines()[1:] if row.split(b"#")[0].strip()]
    lo, hi = 0, len(rows)   # rows[:lo] read; one of rows[lo:hi] does not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            np.loadtxt([row.decode() for row in rows[lo:mid]], delimiter=",", usecols=(1, 2, 3))
            lo = mid
        except ValueError:
            hi = mid
    return lo + 1


def read_spectrum_csv(path, grid: FrequencyGrid | None = None,
                      meta: dict | None = None, label="custom") -> SampledSpectrum:
    """Re-ingest a spectrum written by :func:`write_spectrum_csv`.

    The grid is reconstructed from the sample positions unless given.
    ValueError, naming ``path``, unless the file is UTF-8 with a number in
    each row's ``xi``, ``re`` and ``im`` column after the header, and there
    are at least two rows, all of them finite,
    (rebuilding the grid) the first two xi a finite positive step apart, and
    every xi the grid's (exact for a file :func:`write_spectrum_csv` wrote:
    ``S`` is a power of two); the error names the first row, counted from 1
    after the header, that is unreadable or whose xi is not.
    """
    with warnings.catch_warnings():
        # an empty file or a lone header: the row count below says so
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(1, 2, 3), ndmin=2)
        except ValueError as e:   # a cell that is no number, a short row, non-UTF-8 bytes
            raise ValueError(f"{path} row {_unreadable_row(path)} is not UTF-8 with a "
                             "number in its xi, re and im columns") from e
    if data.shape[0] < 2:
        raise ValueError(f"{path} holds {data.shape[0]} samples; need at least 2")
    if not np.isfinite(data).all():
        raise ValueError(f"{path} holds non-finite samples")
    xi, re, im = data[:, 0], data[:, 1], data[:, 2]
    if grid is None:
        spacing = float(xi[1]) - float(xi[0])   # as Python floats an overflow is inf, no warning
        if not 0 < spacing < math.inf:
            raise ValueError(f"{path} has xi spacing {spacing}; need a finite positive one")
        S = int(round(1.0 / spacing))
        Xi = int(round(-xi[0]))
        grid = FrequencyGrid(samples_per_unit=S, half_range=Xi)
    if data.shape[0] != grid.n_points:
        raise ValueError(f"{path} holds {data.shape[0]} samples, grid wants {grid.n_points}")
    off_grid = np.flatnonzero(xi != grid.xi)
    if off_grid.size:
        i = int(off_grid[0])
        raise ValueError(f"{path} row {i + 1} has xi = {float(xi[i])!r}, "
                         f"not the grid's {float(grid.xi[i])!r}")
    values = re + 1j * im
    if np.all(im == 0.0):
        values = re
    return SampledSpectrum(grid=grid, values=values, label=label, meta=dict(meta or {}))
