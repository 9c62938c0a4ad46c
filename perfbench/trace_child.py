"""Run one ``sispace`` CLI command with every layer wrapped in spans.

Usage: python trace_child.py SRC_DIR TRACE_OUT.json -- <sispace argv...>

The wrappers live here, not in the library: each public function of the
layer modules (plus the few private ones a metric needs) is replaced at every
binding site inside the ``sispace`` package, i.e. the module attribute and
the ``from ... import`` copies held by other modules.  After
``sispace.cli.main(argv)`` returns, the span summary, counters and computed
work counts are written to TRACE_OUT.json and the process exits with main's
exit code.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
import threading

import numpy as np

from tracer import Tracer

LAYERS = ("cli", "generators", "grid", "spectral", "localization", "report")
PRIVATE_WRAPPED = {
    "cli": ("_build", "_write_windows_csv_from_dict"),
    "spectral": ("_folded",),
}
METHODS_WRAPPED = {
    ("generators", "WindowTables"): ("__init__", "g0_inv", "g1_inv"),
}
WRITERS = ("report.write_report", "report.write_spectrum_csv",
           "report.write_signal_csv", "report.write_periodization_csv",
           "report.write_windows_csv", "report.write_compare_csv",
           "cli._write_windows_csv_from_dict")
BUILDERS = ("generators.build_psi_spectrum", "generators.build_sinc",
            "generators.build_bspline")


class Hooks:
    """Counters recorded next to the spans, after each wrapped call returns."""

    def __init__(self, tracer, modules):
        self.tracer = tracer
        self.mods = modules
        self.lattice_xs = []
        self.n_seen = set()
        self.lock = threading.Lock()

    def __call__(self, name, args, kwargs, result):
        add = self.tracer.add
        if name == "generators.evaluate_psi_time":
            x = args[0] if args else kwargs["x"]
            x = np.array(x, dtype=float).ravel()
            add("generators.evaluate_psi_time.points", x.size)
            with self.lock:
                self.lattice_xs.append(x)
        elif name in BUILDERS:
            add("generators.build.points", result_grid(result).n_points)
        elif name == "generators.WindowTables.__init__":
            add("generators.window_tables.builds", 1)
        elif name == "grid.to_time_domain":
            n_points = result.grid.n_points
            add("grid.to_time_domain.points", n_points)
            add("computed.grid.fft_flops", 5 * n_points * math.log2(n_points))
        elif name == "spectral._folded":
            add("computed.spectral.fold_bytes", args[0].grid.n_points * 8)
        elif name == "spectral.n_invariance_report":
            with self.lock:
                self.n_seen.add(int(result.n))
        elif name in WRITERS:
            add("report.bytes_written", os.path.getsize(args[0]))
        elif name == "report.read_spectrum_csv":
            add("report.bytes_read", os.path.getsize(args[0]))
        elif name == "localization.divergence_probe":
            add("computed.localization.lattice_points",
                probe_lattice_points(self.mods, self.tracer, args[0],
                                     args[3] if len(args) > 3 else kwargs.get("windows")))


def result_grid(result):
    spectrum = result[1] if isinstance(result, tuple) else result
    return spectrum.grid


def probe_lattice_points(mods, tracer, source, windows):
    """Computed lattice size of one probe: 2*round(T_max/dx) + 1 points.

    dx is the step the library itself takes: its lattice step on the
    analytic route, the signal's own time spacing on the grid route.  The
    library calls are made untraced, so they add no spans.
    """
    loc = mods["localization"]
    t_max = float(max(windows if windows is not None else loc.DEFAULT_WINDOWS))
    with tracer.untraced():
        source = loc._as_time_source(source)
        if isinstance(source, mods["generators"].PsiTimeEvaluator):
            dx = loc._lattice_step(source)
        else:
            dx = source.time_spacing
    return 2 * int(round(t_max / dx)) + 1


def _wrap(fn, name, tracer, hooks):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.is_off():
            return fn(*args, **kwargs)
        with tracer.span(name):
            result = fn(*args, **kwargs)
        hooks(name, args, kwargs, result)
        return result
    return wrapper


def install(tracer):
    """Wrap the layer functions at every binding site; return the hooks."""
    modules = {layer: importlib.import_module(f"sispace.{layer}") for layer in LAYERS}
    package = importlib.import_module("sispace")
    binding_sites = [package, *(m for name, m in sys.modules.items()
                                if name.startswith("sispace."))]
    hooks = Hooks(tracer, modules)

    replaced = {}
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") and attr not in PRIVATE_WRAPPED.get(layer, ()):
                continue
            if not callable(obj) or isinstance(obj, type):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            replaced[id(obj)] = (obj, _wrap(obj, f"{layer}.{attr}", tracer, hooks))
    for site in binding_sites:
        for attr, obj in list(vars(site).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(site, attr, hit[1])

    for (layer, cls_name), methods in METHODS_WRAPPED.items():
        cls = getattr(modules[layer], cls_name)
        for meth in methods:
            setattr(cls, meth, _wrap(getattr(cls, meth), f"{layer}.{cls_name}.{meth}",
                                     tracer, hooks))
    return hooks


def main():
    src_dir, out_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: trace_child.py SRC_DIR OUT.json -- ARGV...")
    sys.path.insert(0, src_dir)
    tracer = Tracer()
    hooks = install(tracer)
    cli = sys.modules["sispace.cli"]

    main_thread = threading.get_ident()
    rc = cli.main(argv)
    summary = tracer.summary()
    main_s = summary["cli.main"]["s"]
    # layer coverage of the main thread: spans of every layer except cli
    covered = tracer.covered(main_thread, exclude_prefixes=("cli.",))
    worker_busy = sum(tracer.covered(tid) for tid in tracer.thread_ids()
                      if tid != main_thread)

    counts = dict(tracer.counts)
    counts["report.write.s"] = sum(summary[name]["s"] for name in WRITERS if name in summary)
    if hooks.lattice_xs:
        counts["generators.evaluate_psi_time.distinct_points"] = int(
            np.unique(np.concatenate(hooks.lattice_xs)).size)
    counts["spectral.n_invariance_report.distinct_n"] = len(hooks.n_seen)
    with open(out_path, "w") as fh:
        json.dump({"exit_code": rc, "main_s": main_s,
                   "layer_covered_s": covered, "worker_busy_s": worker_busy,
                   "spans": summary, "counts": counts}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
