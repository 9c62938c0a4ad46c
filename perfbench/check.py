"""Output check against reference values recorded from the seed code.

A reference holds, per operation, the fields extracted from its outputs:
the ``grid`` and ``analyses`` blocks of ``report.json``, the fields of
``meta.json`` (except the tool version), the rows of ``compare.csv``, and
for the large CSV files the line count, evenly spaced sample rows and
per-column sums over every row (see ``column_sums``).
Strings, booleans, integers and ``None`` (verdicts, group strings,
pass/fail cells, point counts) must match exactly; floats must agree within
``REL_TOL`` relative, the library's cross-route gate, with ``ABS_FLOOR``
(the library's magnitude threshold) for values that are zero up to
rounding.  Keys present in an output but absent from the reference are
ignored, so later diagnostics added to a report do not count as mismatches.
"""

from __future__ import annotations

import json
import math

import numpy as np

REL_TOL = 1e-6
ABS_FLOOR = 1e-12
CSV_SAMPLES = 16


def _cell(text):
    for conv in (int, float):
        try:
            return conv(text)
        except ValueError:
            pass
    return text


def _read_csv_rows(path):
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [line.rstrip("\n").split(",") for line in fh]
    return header, rows


def column_sums(header, lines):
    """Per column, sums over all rows of the positive and the negative parts
    of the values, plain and weighted by the row position i/n_rows.

    Splitting by sign keeps each sum free of cancellation, so the relative
    tolerance applies to it as to a single value; the position weight makes
    moved or reordered rows show.  Every row enters every sum.
    """
    data = np.loadtxt(lines, delimiter=",", ndmin=2)
    weight = np.arange(data.shape[0]) / max(1, data.shape[0])
    pos, neg = np.maximum(data, 0.0), np.minimum(data, 0.0)
    sums = {"pos": pos.sum(axis=0), "neg": neg.sum(axis=0),
            "pos_at": weight @ pos, "neg_at": weight @ neg}
    return {name: {k: float(v[j]) for k, v in sums.items()}
            for j, name in enumerate(header)}


def extract(kind, path):
    """The reference fields of one output file."""
    if kind == "report":
        with open(path) as fh:
            report = json.load(fh)
        return {"grid": report["grid"], "analyses": report["analyses"]}
    if kind == "meta":
        with open(path) as fh:
            meta = json.load(fh)
        meta.pop("version", None)
        return meta
    if kind == "compare":
        header, rows = _read_csv_rows(path)
        return {"header": header,
                "rows": {row[0]: [_cell(c) for c in row] for row in rows},
                "order": [row[0] for row in rows]}
    if kind == "csv":
        with open(path) as fh:
            header = fh.readline().rstrip("\n").split(",")
            lines = fh.readlines()
        step = max(1, len(lines) // CSV_SAMPLES)
        picks = sorted(set(range(0, len(lines), step)) | {len(lines) - 1})
        return {"header": header, "n_rows": len(lines),
                "samples": {str(i): [_cell(c) for c in lines[i].rstrip("\n").split(",")]
                            for i in picks},
                "sums": column_sums(header, lines)}
    raise ValueError(f"unknown output kind {kind!r}")


def close(a, b, floor=ABS_FLOOR):
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + floor


def mismatches(ref, out, where="$"):
    """Paths at which ``out`` disagrees with the reference ``ref``."""
    if isinstance(ref, dict):
        if not isinstance(out, dict):
            return [f"{where}: expected an object"]
        found = []
        for key, value in ref.items():
            if key not in out:
                found.append(f"{where}.{key}: missing")
            else:
                found += mismatches(value, out[key], f"{where}.{key}")
        return found
    if isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            return [f"{where}: expected a list of {len(ref)}"]
        found = []
        for i, (r, o) in enumerate(zip(ref, out)):
            found += mismatches(r, o, f"{where}[{i}]")
        return found
    if isinstance(ref, float) and isinstance(out, (int, float)) and not isinstance(out, bool):
        if math.isfinite(out) and close(ref, float(out)):
            return []
        return [f"{where}: {out!r} != {ref!r} (rel {REL_TOL:g})"]
    if type(ref) is type(out) and ref == out:
        return []
    return [f"{where}: {out!r} != {ref!r}"]


def check_output(kind, path, ref, expected_order=None):
    """Mismatch list for one output file; a missing or unreadable file is one."""
    try:
        got = extract(kind, path)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"{path}: unreadable ({exc})"]
    found = []
    if kind == "csv":
        # a sum over n rows may move by the floor of each of its rows
        ref = dict(ref)
        floor = ABS_FLOOR * max(1, got["n_rows"])
        for col, expected in ref.pop("sums").items():
            for key, value in expected.items():
                have = got["sums"].get(col, {}).get(key)
                if have is None or not close(value, have, floor):
                    found.append(f"{path}.sums.{col}.{key}: {have!r} != {value!r} "
                                 f"(rel {REL_TOL:g})")
    found += mismatches(ref, got, path)
    if kind == "compare" and expected_order is not None and got["order"] != list(expected_order):
        found.append(f"{path}: row order {got['order']} != {list(expected_order)}")
    return found
