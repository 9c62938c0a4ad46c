"""Deterministic serialization: byte-stable JSON and fixed-format CSV.

The standard json module does not expose float formatting, so reports go
through a small emitter of our own: keys keep insertion order, floats print
with 17 significant digits ('.' decimal, no locale), which round-trips
float64 exactly.  Identical config + identical version => byte-identical
bytes out.

Numeric CSV tables are formatted ``CSV_BLOCK_ROWS`` rows at a time, each
cell the text it has when formatted alone (:func:`_fmt_float` for a
float).  Only the sampled float cells go through ``%``, one ``%`` operation
per block; the rest of the block is text built in numpy and baked into the
format string of that ``%``: the row index and integer cells as their
digits, a float cell that is exactly +0.0 or -0.0 as literal text, and the
grid axis of a spectrum or signal, ``(first + r) * 2**-e`` at row ``r``
(``N`` is a power of two, so both axes are), as its sign, the digits of its
integer part and the text of its fraction, from a table of the ``2**e``
fractions built once per file.  That text is ``%.17g``'s exactly when
``e <= 13`` (no exponent form: ``2**-13 > 1e-4``) and the integer part's
digits plus ``e`` are at most 17 (no rounding); outside that guard the axis
goes through ``%`` like a sampled value.  A table of several blocks is
split into contiguous block ranges by :func:`sispace.forks.split`, and
:func:`sispace.forks.run_ranges` formats them: this process the first range
into the file, a forked child each further range into a hidden part file
beside it, which the parent appends in order.  Each range goes through the
same formatter in the same blocks, so the bytes are those of one worker,
and the part files are removed on every path.  Each writer checks its
values, then creates the path it is given; :func:`staged_paths` makes a
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
from .grid import FrequencyGrid, GridError, SampledSignal, SampledSpectrum

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


def _table(texts):
    """``texts`` as rows of ASCII bytes, padded with NUL to one width: indexed
    by an array of entries, the text of each entry."""
    width = max(map(len, texts))
    chars = "".join(t.ljust(width, "\0") for t in texts).encode("ascii")
    return np.frombuffer(chars, np.uint8).reshape(len(texts), width)


def _digits(n, width):
    """The decimal digits of the non-negative integers ``n``, right-aligned in
    ``width`` bytes, each leading zero a NUL (0 keeps one digit)."""
    chars = np.empty((n.size, width), np.uint8)
    for k in range(width - 1, -1, -1):
        shown = (n > 0) | (k == width - 1)
        n, digit = np.divmod(n, 10)
        chars[:, k] = (digit + ord("0")) * shown
    return chars


def _sign(n):
    """A ``-`` before each negative of ``n``, a NUL before the rest."""
    return (n < 0)[:, None] * np.uint8(ord("-"))


def _write_csv(path, header, kinds, *columns):
    """CSV of numeric columns, formatted ``CSV_BLOCK_ROWS`` rows per ``%``.

    ``kinds`` has one letter per CSV column: ``i`` the row index, ``d`` an
    integer column, ``g`` a float column printed as :func:`_fmt_float` does,
    and ``a`` an axis ``(first, e)`` whose row ``r`` holds
    ``(first + r) * 2**-e``, printed as a ``g`` column of those values is.
    ``columns`` are the ``d``, ``g`` and ``a`` columns in order.  Every float
    is checked before the file is opened.  This process writes the first
    block range into ``path``, each forked child its range into a hidden
    part file beside it, and the parts are appended in order.
    """
    kinds = list(kinds)
    data = iter(columns)
    sources = [None if kind == "i" else next(data) for kind in kinds]
    for j, kind in enumerate(kinds):
        if kind in "dg":
            sources[j] = np.asarray(sources[j], dtype=np.int64 if kind == "d" else float)
    if not all(np.isfinite(src).all() for kind, src in zip(kinds, sources) if kind in "dg"):
        raise ValueError(NON_FINITE)
    n_rows = next(src.size for kind, src in zip(kinds, sources) if kind in "dg")
    widths = {}   # column -> digits of its widest integer, or integer part
    for j, kind in enumerate(kinds):
        if kind == "a":
            first, e = sources[j]
            widths[j] = len(str(max(abs(first), abs(first + n_rows - 1)) >> e))
            # digits of (first + r) * 2**-e are its exact decimal text, which is
            # %.17g's unless that takes the exponent form (below 1e-4: e > 13) or
            # rounds (past 17 significant digits); then the axis is a g column
            if e > 13 or widths[j] + e > 17:
                kinds[j], sources[j] = "g", np.arange(first, first + n_rows) / 2.0 ** e
        elif kind == "i":
            widths[j] = len(str(max(n_rows - 1, 0)))
        elif kind == "d":
            # as uint64 the magnitude of every int64, -2**63 included
            widths[j] = len(str(int(np.abs(sources[j]).astype(np.uint64).max(initial=0))))
    floats = [j for j, kind in enumerate(kinds) if kind == "g"]
    # a float cell's text by its state: 0 general, 1 integral, 2 +0.0 and 3 -0.0;
    # a zero is literal text that takes no argument
    formats = _table(["%.17g", "%.1f", "0.0", "-0.0"])
    # an axis row's text after its integer part, by its fraction f * 2**-e
    fractions = {j: _table([".0", *(("%.17g" % (f / 2 ** sources[j][1]))[1:]
                                     for f in range(1, 2 ** sources[j][1]))])
                 for j, kind in enumerate(kinds) if kind == "a"}

    def write_blocks(fh, first, last):   # rows first..last-1, from a block's first row
        for start in range(first, last, CSV_BLOCK_ROWS):
            stop = min(start + CSV_BLOCK_ROWS, n_rows)
            rows = np.arange(start, stop)
            cells = np.empty((stop - start, len(floats)))
            for k, j in enumerate(floats):
                cells[:, k] = sources[j][start:stop]
            zero = cells == 0.0
            state = (np.trunc(cells) == cells) & (np.abs(cells) < _FIXED_INTEGRAL_LIMIT)
            state = iter((state + zero * (1 + np.signbit(cells))).T)
            # each cell's bytes then a comma, or the line end after the last cell
            comma = np.full((stop - start, 1), ord(","), np.uint8)
            text = []
            for j, kind in enumerate(kinds):
                if kind == "i":
                    text.append(_digits(rows, widths[j]))
                elif kind == "d":
                    n = sources[j][start:stop]
                    text += [_sign(n), _digits(np.abs(n).astype(np.uint64), widths[j])]
                elif kind == "a":
                    q = rows + sources[j][0]
                    magnitude, e = np.abs(q), sources[j][1]
                    text += [_sign(q), _digits(magnitude >> e, widths[j]),
                             fractions[j][magnitude & (2 ** e - 1)]]
                else:
                    text.append(formats[next(state)])
                text.append(comma)
            text[-1] = np.full_like(comma, ord("\n"))
            text = np.concatenate(text, axis=1).tobytes().translate(None, b"\0").decode("ascii")
            fh.write(text % tuple(cells[~zero].tolist()))

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


def _write_samples_csv(path, axis_name, grid, scale, values):
    # the axis is (r - N/2) / scale at row r, scale a power of two
    values = np.asarray(values)
    _write_csv(path, ("index", axis_name, "re", "im"), "iagg",
               (-grid.n_points // 2, scale.bit_length() - 1), values.real, values.imag)


def write_spectrum_csv(path, spectrum: SampledSpectrum):
    _write_samples_csv(path, "xi", spectrum.grid, spectrum.grid.samples_per_unit,
                       spectrum.values)


def write_signal_csv(path, signal: SampledSignal):
    _write_samples_csv(path, "x", signal.grid, 2 * signal.grid.half_range, signal.values)


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
    (rebuilding the grid) the first two xi a finite positive step apart, from
    which the first xi and the step give a :class:`FrequencyGrid`, and every
    xi the grid's (exact for a file :func:`write_spectrum_csv` wrote:
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
        try:   # 1 / a subnormal spacing overflows to inf
            grid = FrequencyGrid(samples_per_unit=int(round(1.0 / spacing)),
                                 half_range=int(round(-xi[0])))
        except (GridError, OverflowError) as e:
            raise ValueError(f"{path} has xi from {float(xi[0])!r} in steps of {spacing!r}, "
                             f"which is no grid: {e}") from None
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
