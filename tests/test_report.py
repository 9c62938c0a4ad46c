"""The CSV block formatter against a per-cell reference, the atomic writes,
and the JSON emitter's round trip.

The reference formats one cell at a time: the row index and integer cells
with ``str(int(v))``, float cells (a grid axis included) with
``_fmt_float``.  That is what every numeric table was written with before
the block formatter, so equal bytes here mean byte-identical CSV outputs.
"""

import functools
import json
import math
import os
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sispace import forks, report
from sispace.generators import build_sinc
from sispace.grid import FrequencyGrid, SampledSignal, SampledSpectrum
from sispace.report import (CSV_BLOCK_ROWS, NON_FINITE, _fmt_float, _write_csv,
                            dumps_deterministic, staged_paths, write_periodization_csv,
                            write_report, write_signal_csv, write_spectrum_csv,
                            write_windows_csv)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 0.5, -3.0, 1e16, 2e16,
               99999999999999984.0, 1e17, -1e17, 1e22, 1.0 / 3.0, -2.5e-300]


def reference_csv(header, kinds, *columns):
    data = iter(columns)
    sources = [None if kind == "i" else list(next(data)) for kind in kinds]
    lines = [",".join(header)]
    for r in range(len(columns[0])):
        cells = []
        for kind, src in zip(kinds, sources):
            if kind == "i":
                cells.append(str(r))
            elif kind == "d":
                cells.append(str(int(src[r])))
            else:
                cells.append(_fmt_float(src[r]))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.integers(-2 ** 62, 2 ** 62).map(float),
                   st.sampled_from(EDGE_FLOATS))


@st.composite
def float_columns(draw):
    n = draw(st.integers(0, 24))
    column = st.lists(finite, min_size=n, max_size=n)
    return draw(column), draw(column), draw(st.lists(st.integers(0, 2 ** 40),
                                                     min_size=n, max_size=n))


@PROPERTY
@given(float_columns(), st.integers(1, 7))
def test_block_writer_matches_per_cell_reference(tmp_path_factory, cols, block_rows):
    a, b, ints = cols
    header = ("index", "a", "k", "b")
    expected = reference_csv(header, "igdg", a, ints, b)
    # the blocks split across 1, 2 and 3 workers: the same bytes, whatever the split
    for workers in (1, 2, 3):
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        with mock.patch.object(report, "CSV_BLOCK_ROWS", block_rows), \
                mock.patch.object(forks, "workers", lambda: workers):
            _write_csv(path, header, "igdg", a, ints, b)
        assert path.read_text() == expected
        assert [p.name for p in path.parent.iterdir()] == ["t.csv"]


@st.composite
def axis_columns(draw):
    # an axis (first + r) * 2**-e from near 0 out to 16 integer digits: both
    # sides of the writer's guard (e <= 13, integer digits + e <= 17)
    n = draw(st.integers(0, 24))
    first = draw(st.one_of(st.integers(-64, 64), st.integers(-2 ** 50, 2 ** 50)))
    e = draw(st.integers(0, 15))
    column = st.lists(finite, min_size=n, max_size=n)
    return (first, e), draw(column), draw(st.lists(st.integers(-2 ** 40, 2 ** 40),
                                                   min_size=n, max_size=n)), draw(column)


@PROPERTY
@given(axis_columns(), st.integers(1, 7))
def test_axis_writer_matches_per_cell_reference(tmp_path_factory, cols, block_rows):
    (first, e), a, ints, b = cols
    header = ("index", "x", "a", "k", "b")
    axis = np.arange(first, first + len(a)) / 2.0 ** e
    expected = reference_csv(header, "iggdg", axis, a, ints, b)
    for workers in (1, 2, 3):
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        with mock.patch.object(report, "CSV_BLOCK_ROWS", block_rows), \
                mock.patch.object(forks, "workers", lambda: workers):
            _write_csv(path, header, "iagdg", (first, e), a, ints, b)
        assert path.read_text() == expected
        assert [p.name for p in path.parent.iterdir()] == ["t.csv"]


@pytest.mark.parametrize("first, e", [
    (-1024 << 13, 13),              # the README grid's x axis: 4 integer digits + 13 = 17
    ((1024 << 13) - 40, 13),
    (-20, 13),                      # 2**-13 prints in fixed notation
    (-20, 14),                      # 2**-14 = 6.103515625e-05: past the guard
    ((10000 << 13) - 20, 13),       # 9999 (17 digits) to 10000 (18: %.17g rounds)
    (-(10 ** 16 << 1) - 20, 1),     # 17 integer digits + 1 = 18
    (-(10 ** 15 << 2) - 20, 2),     # 16 + 2 = 18, and 15 + 2 = 17 past -10**15
])
def test_axis_on_both_sides_of_the_guard(tmp_path, first, e):
    # 40 rows near the boundary, not the whole axis
    zeros = np.zeros(40)
    _write_csv(tmp_path / "t.csv", ("index", "x", "re"), "iag", (first, e), zeros)
    axis = np.arange(first, first + 40) / 2.0 ** e
    assert (tmp_path / "t.csv").read_text() == reference_csv(("index", "x", "re"), "igg",
                                                             axis, zeros)


@functools.cache
def axis_reference(e):
    """``_fmt_float`` of ``q * 2**-e`` at ``q + 2**15`` for every q in
    [-2**15, 2**15): the cells of every grid axis of N <= 2**16 at spacing 2**-e."""
    return [_fmt_float(q / 2 ** e) for q in range(-2 ** 15, 2 ** 15)]


def samples_reference(axis_name, n, e, values):
    """``reference_csv`` of a samples table on an axis (r - n/2) * 2**-e, its
    cells taken from ``axis_reference`` and from ``values``, which repeat
    with period 7."""
    re_text = [_fmt_float(v) for v in values.real[:7]]
    im_text = [_fmt_float(v) for v in np.asarray(values, dtype=complex).imag[:7]]
    axis = axis_reference(e)[2 ** 15 - n // 2:2 ** 15 + n // 2]
    return f"index,{axis_name},re,im\n" + "".join(
        f"{r},{x},{re_text[r % 7]},{im_text[r % 7]}\n" for r, x in enumerate(axis))


def test_every_grid_axis_up_to_2_to_the_16_matches_the_reference(tmp_path):
    grids = [FrequencyGrid(1 << a, 1 << c) for a in range(1, 15) for c in range(1, 16 - a)]
    assert len(grids) == 105 and max(g.n_points for g in grids) == 1 << 16
    for k, grid in enumerate(grids):
        n = grid.n_points
        cycle = [0.0, 1.0 / 3.0, 0.0, -0.0, -2.5, 0.0, 1e22]
        real = np.resize(cycle, n)
        cplx = real - 1j * np.resize(np.roll(cycle, 1), n)
        # the spectrum's and the signal's values take turns being real and complex
        spectrum_values, signal_values = (real, cplx) if k % 2 else (cplx, real)
        write_spectrum_csv(tmp_path / "s.csv", SampledSpectrum(grid, spectrum_values))
        write_signal_csv(tmp_path / "x.csv", SampledSignal(grid, signal_values))
        S, two_xi = grid.samples_per_unit, 2 * grid.half_range
        expected = samples_reference("xi", n, S.bit_length() - 1, spectrum_values)
        if n <= 1 << 8:   # the cycle reference is reference_csv's text
            assert expected == reference_csv(("index", "xi", "re", "im"), "iggg", grid.xi,
                                             spectrum_values.real,
                                             np.asarray(spectrum_values, dtype=complex).imag)
        assert (tmp_path / "s.csv").read_text() == expected
        assert (tmp_path / "x.csv").read_text() == samples_reference(
            "x", n, two_xi.bit_length() - 1, signal_values)
        os.unlink(tmp_path / "s.csv")
        os.unlink(tmp_path / "x.csv")


@pytest.mark.parametrize("n_rows", [1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1])
def test_edge_values_across_block_lengths(tmp_path, n_rows):
    values = np.resize(np.array(EDGE_FLOATS), n_rows)
    shifted = np.roll(-values, 3)
    header = ("index", "x", "re", "im")
    _write_csv(tmp_path / "t.csv", header, "iggg", values, shifted, values[::-1])
    assert (tmp_path / "t.csv").read_text() == reference_csv(header, "iggg", values,
                                                             shifted, values[::-1])


def test_public_writers_match_reference(tmp_path):
    spec = build_sinc(FrequencyGrid(32, 4))
    write_spectrum_csv(tmp_path / "s.csv", spec)
    values = np.asarray(spec.values, dtype=complex)
    assert (tmp_path / "s.csv").read_text() == reference_csv(
        ("index", "xi", "re", "im"), "iggg", spec.grid.xi, values.real, values.imag)

    profile = SimpleNamespace(residues=np.arange(8) / 8, values=np.linspace(0.5, 2.0, 8),
                              excluded=np.arange(8) % 3 == 0)
    write_periodization_csv(tmp_path / "p.csv", profile)
    assert (tmp_path / "p.csv").read_text() == reference_csv(
        ("index", "xi", "G", "excluded"), "iggd",
        profile.residues, profile.values, profile.excluded)

    verdict = SimpleNamespace(windows=(2.0, 4.0, 8.0), partials=(1.5, 2.25, 2.375),
                              tail_increments=(0.75, 0.125))
    write_windows_csv(tmp_path / "w.csv", verdict)
    assert (tmp_path / "w.csv").read_text() == ("T,partial,increment\n2.0,1.5,1.5\n"
                                                "4.0,2.25,0.75\n8.0,2.375,0.125\n")


class FailingFile:
    """A real temp file whose second ``write`` fails, as on a full disk."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)

    def write(self, text):
        self.writes += 1
        if self.writes == 2:
            raise OSError(28, "No space left on device")
        return self.fh.write(text)


@pytest.mark.parametrize("old", [None, "old,bytes\n"])
def test_failed_write_leaves_no_partial_file(tmp_path, monkeypatch, old):
    path = tmp_path / "spectrum.csv"
    if old is not None:
        path.write_text(old)
    monkeypatch.setattr(report, "CSV_BLOCK_ROWS", 4)
    monkeypatch.setattr(report, "open", lambda *a, **k: FailingFile(open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError, match="No space left"), staged_paths(path) as (tmp,):
        write_spectrum_csv(tmp, build_sinc(FrequencyGrid(8, 2)))
    assert [p.name for p in tmp_path.iterdir()] == ([] if old is None else ["spectrum.csv"])
    if old is not None:
        assert path.read_text() == old


@pytest.mark.parametrize("error", [OSError(28, "No space left on device"),
                                   ValueError("block 5 cannot be formatted")],
                         ids=["disk-full", "value-error"])
def test_failed_child_range_leaves_no_file_and_no_process(tmp_path, monkeypatch, error):
    # 32 rows in blocks of 4 over 3 workers: this process writes blocks 0-2,
    # one child 3-5 and one child 6-7, whose part file fails on its first write
    class FailingPart(FailingFile):
        def write(self, text):
            raise error

    def failing_open(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        return FailingPart(fh) if str(path).endswith(".2.part") else fh

    monkeypatch.setattr(report, "CSV_BLOCK_ROWS", 4)
    monkeypatch.setattr(forks, "workers", lambda: 3)
    monkeypatch.setattr(report, "open", failing_open, raising=False)
    # a child leaves through os._exit: it never flushes what this process buffered
    inherited = open(tmp_path / "inherited.txt", "w")
    inherited.write("written once\n")
    path = tmp_path / "spectrum.csv"
    with pytest.raises(type(error)) as raised, staged_paths(path) as (tmp,):
        write_spectrum_csv(tmp, build_sinc(FrequencyGrid(8, 2)))
    inherited.close()
    assert str(raised.value) == str(error)
    assert getattr(raised.value, "errno", None) == getattr(error, "errno", None)
    assert [p.name for p in tmp_path.iterdir()] == ["inherited.txt"]
    assert (tmp_path / "inherited.txt").read_text() == "written once\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_workers_are_the_usable_cpus_and_one_without_fork(tmp_path, monkeypatch):
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert forks.workers() == (cpus if hasattr(os, "fork") else 1)
    monkeypatch.setattr(report, "CSV_BLOCK_ROWS", 4)
    spec = build_sinc(FrequencyGrid(8, 2))
    write_spectrum_csv(tmp_path / "split.csv", spec)
    # with no os.fork every block is written here, and nothing forks
    monkeypatch.delattr(os, "fork", raising=False)
    assert forks.workers() == 1
    write_spectrum_csv(tmp_path / "one.csv", spec)
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "split.csv").read_bytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_sample_raises_before_any_file_exists(tmp_path, monkeypatch, bad):
    opened = []
    monkeypatch.setattr(report, "open", lambda *a, **k: opened.append(a) or open(*a, **k),
                        raising=False)
    grid = FrequencyGrid(8, 2)
    values = np.ones(grid.n_points, dtype=complex)
    values[-1] = complex(0.0, bad)
    # a SampledSpectrum rejects such values itself; a SampledSignal reaches the writer
    with pytest.raises(ValueError, match=NON_FINITE):
        write_signal_csv(tmp_path / "signal.csv", SampledSignal(grid, values))
    with pytest.raises(ValueError, match=NON_FINITE):
        write_report(tmp_path / "report.json", {"x": [1.0, bad]})
    assert opened == [] and list(tmp_path.iterdir()) == []


def test_replaces_an_existing_output(tmp_path):
    path = tmp_path / "report.json"
    path.write_text("stale\n")
    with staged_paths(path) as (tmp,):
        write_report(tmp, {"a": 1})
    assert path.read_text() == '{\n  "a": 1\n}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=20)


@PROPERTY
@given(json_values)
def test_deterministic_json_round_trips(x):
    assert json.loads(dumps_deterministic(x)) == x
