"""Deterministic serialization: byte-stable JSON and fixed-format CSV.

The standard json module does not expose float formatting, so reports go
through a small emitter of our own: keys keep insertion order, floats print
with 17 significant digits ('.' decimal, no locale), which round-trips
float64 exactly.  Identical config + identical version => byte-identical
bytes out.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .grid import FrequencyGrid, SampledSignal, SampledSpectrum

FLOAT_FMT = ".17g"


def _fmt_float(x):
    if math.isnan(x) or math.isinf(x):
        raise ValueError("reports must not contain NaN or infinity")
    s = format(float(x), FLOAT_FMT)
    # keep a float marker so round-tripped types stay stable
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


def dumps_deterministic(obj, indent=0):
    """JSON text with fixed key order and 17-significant-digit floats."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
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


def write_report(path, obj):
    # rendered before the file is opened: a value that cannot be written leaves no file
    text = dumps_deterministic(obj) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _cell(v):
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _fmt_float(v)
    return str(v)


def _write_samples_csv(path, axis_name, axis, values):
    vals = np.asarray(values, dtype=complex)
    rows = ((str(i), _fmt_float(axis[i]), _fmt_float(vals[i].real), _fmt_float(vals[i].imag))
            for i in range(vals.size))
    _write_csv(path, ("index", axis_name, "re", "im"), rows)


def write_spectrum_csv(path, spectrum: SampledSpectrum):
    _write_samples_csv(path, "xi", spectrum.grid.xi, spectrum.values)


def write_signal_csv(path, signal: SampledSignal):
    _write_samples_csv(path, "x", signal.grid.x, signal.values)


def write_periodization_csv(path, profile):
    rows = ((str(i), _fmt_float(profile.residues[i]), _fmt_float(profile.values[i]),
             str(int(profile.excluded[i])))
            for i in range(profile.values.size))
    _write_csv(path, ("index", "xi", "G", "excluded"), rows)


def write_windows_csv(path, verdict):
    increments = (verdict.partials[0],) + tuple(verdict.tail_increments)
    rows = ((_fmt_float(T), _fmt_float(P), _fmt_float(inc))
            for T, P, inc in zip(verdict.windows, verdict.partials, increments))
    _write_csv(path, ("T", "partial", "increment"), rows)


def write_compare_csv(path, header, rows):
    _write_csv(path, header, ([_cell(v) for v in row] for row in rows))


def read_spectrum_csv(path, grid: FrequencyGrid | None = None,
                      meta: dict | None = None) -> SampledSpectrum:
    """Re-ingest a spectrum written by :func:`write_spectrum_csv`.

    The grid is reconstructed from the sample positions unless given.
    ValueError unless there are at least two rows, all of them finite.
    """
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(1, 2, 3), ndmin=2)
    if data.shape[0] < 2:
        raise ValueError(f"{path} holds {data.shape[0]} samples; need at least 2")
    if not np.isfinite(data).all():
        raise ValueError(f"{path} holds non-finite samples")
    xi, re, im = data[:, 0], data[:, 1], data[:, 2]
    if grid is None:
        spacing = xi[1] - xi[0]
        S = int(round(1.0 / spacing))
        Xi = int(round(-xi[0]))
        grid = FrequencyGrid(samples_per_unit=S, half_range=Xi)
    if data.shape[0] != grid.n_points:
        raise ValueError(f"{path} holds {data.shape[0]} samples, grid wants {grid.n_points}")
    values = re + 1j * im
    if np.all(im == 0.0):
        values = re
    meta = dict(meta or {})
    return SampledSpectrum(grid=grid, values=values,
                           label=meta.get("label", "custom"),
                           hermitian=bool(meta.get("hermitian", False)),
                           meta=meta)
