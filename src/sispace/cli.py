"""Command-line front end: ``sispace construct | analyze | compare``.

The CLI reads and validates the config (:class:`RunConfig`), then hands a
:class:`~sispace.pipeline.RunContext` to the analysis pipeline in
:mod:`sispace.pipeline`: ``analyze`` runs the named sections, ``compare``
projects one context per generator into a ``compare.csv`` row, and
``construct`` uses the same :func:`~sispace.pipeline.build`.

Exit codes: 0 success, 2 config error, 3 numeric precondition violation
(e.g. grid too small), 4 I/O failure.  ``analyze`` writes a deterministic
``report.json`` (same config + same version => byte-identical bytes) plus
CSV tables; wall-clock timings go to a separate ``run_meta.json`` so they
never perturb the report.  ``SISPACE_THREADS`` caps the worker pool used by
``compare``.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .generators import GeneratorSpec
from .grid import GridError, to_time_domain
from .localization import check_windows
from .pipeline import (DEFAULT_PARAMETERS, SECTIONS, ConfigError, RunContext,
                       build, compare_header, compare_row, load_json)
from .report import (write_compare_csv, write_periodization_csv, write_report,
                     write_signal_csv, write_spectrum_csv, write_windows_csv)

EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_IO = 0, 2, 3, 4

ANALYSES = tuple(SECTIONS)


class RunConfig:
    """Validated run description (generator, grid, analyses, parameters).

    ``parameters`` holds the typed analysis parameters; the report echoes
    them as written in the config.
    """

    def __init__(self, obj, overrides=None):
        if not isinstance(obj, dict):
            raise ConfigError("config must be a JSON object")
        overrides = overrides or {}
        try:
            self.spec = GeneratorSpec.from_json(obj.get("generator", obj))
        except (ValueError, KeyError, TypeError) as e:
            raise ConfigError(f"bad generator spec: {e}") from e
        self.grid_spec = overrides.get("grid") or obj.get("grid", "auto")
        analyses = (overrides.get("analyses")
                    or obj.get("analyses", ["periodization", "invariance"]))
        if not analyses:
            raise ConfigError("analyses must be non-empty")
        bad = [a for a in analyses if a not in ANALYSES]
        if bad:
            raise ConfigError(f"unknown analyses {bad}; choose from {ANALYSES}")
        self.analyses = list(analyses)
        given = obj.get("parameters", {})
        if not isinstance(given, dict):
            raise ConfigError("parameters must be a JSON object")
        if "J" in given:
            raise ConfigError("parameters.J is not supported; set generator.J instead")
        self._echoed = {**DEFAULT_PARAMETERS, **given}
        overridden = [key for key in ("eps", "n_max", "windows")
                      if overrides.get(key) is not None]
        self._echoed.update({key: overrides[key] for key in overridden})
        self.parameters = {}
        for key, default in DEFAULT_PARAMETERS.items():
            value = self._echoed[key]
            try:
                self.parameters[key] = (check_windows(value) if key == "windows"
                                        else type(default)(value))
            except (TypeError, ValueError, OverflowError) as e:
                raise ConfigError(f"bad parameter {key} = {value!r}: {e}") from e
        # command-line values are echoed typed, as they were parsed
        self._echoed.update({key: self.parameters[key] for key in overridden})
        self.output = overrides.get("out") or obj.get("output", ".")
        self.formats = overrides.get("formats") or obj.get("formats", ["json", "csv"])
        for f in self.formats:
            if f not in ("json", "csv"):
                raise ConfigError(f"unknown format {f!r}")

    def echo(self):
        return {"generator": self.spec.to_json(), "grid": self.grid_spec,
                "analyses": self.analyses, "parameters": self._echoed,
                "formats": list(self.formats)}


def _grid_block(grid, sizing):
    return {"samples_per_unit": grid.samples_per_unit, "half_range": grid.half_range,
            "n_points": grid.n_points, "spacing": grid.spacing,
            "time_spacing": grid.time_spacing, "sizing": sizing}


def cmd_construct(cfg: RunConfig):
    grid, spectrum, signal, sizing = build(cfg.spec, cfg.grid_spec)
    if signal is None:
        signal = to_time_domain(spectrum)
    out = Path(cfg.output)
    out.mkdir(parents=True, exist_ok=True)
    write_spectrum_csv(out / "spectrum.csv", spectrum)
    write_signal_csv(out / "signal.csv", signal)
    meta = {"generator": cfg.spec.to_json(), "version": __version__,
            "grid": _grid_block(grid, sizing), "label": spectrum.label,
            "hermitian": spectrum.hermitian, "spectrum_meta": spectrum.meta}
    if cfg.spec.kind == "psi":
        p = cfg.spec.psi
        meta["beta_j"] = list(p.block_counts[:p.J])
        meta["gamma_j"] = list(p.block_offsets[:p.J])
        meta["required_half_range"] = p.required_half_range
    write_report(out / "meta.json", meta)
    return EXIT_OK


def cmd_analyze(cfg: RunConfig):
    t_start = time.perf_counter()
    ctx = RunContext(cfg.spec, cfg.grid_spec, cfg.parameters)
    analyses, timings = {}, {}
    for name in ANALYSES:
        if name in cfg.analyses:
            t0 = time.perf_counter()
            analyses[name] = SECTIONS[name](ctx)
            timings[name] = time.perf_counter() - t0
    # created only once every analysis has succeeded: a failed run leaves no directory
    out = Path(cfg.output)
    out.mkdir(parents=True, exist_ok=True)
    if "json" in cfg.formats:
        write_report(out / "report.json", {"config": cfg.echo(), "version": __version__,
                                           "grid": _grid_block(ctx.grid, ctx.sizing),
                                           "analyses": analyses})
    if "csv" in cfg.formats:
        if "periodization" in analyses:
            write_periodization_csv(out / "periodization.csv", ctx.profile)
        if "decay" in analyses:
            for name, verdict in ctx.decay_verdicts.items():
                write_windows_csv(out / f"windows_{name}.csv", verdict)
    with open(out / "run_meta.json", "w") as fh:
        json.dump({"wall_clock_s": {k: round(v, 6) for k, v in timings.items()},
                   "total_s": round(time.perf_counter() - t_start, 6)}, fh, indent=2)
        fh.write("\n")
    return EXIT_OK


def cmd_compare(cfgs, out_dir, n_max=4):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # every generator is probed with the same fixed parameters, not its config's
    parameters = dict(DEFAULT_PARAMETERS, n_max=n_max)
    try:
        cap = max(1, int(os.environ.get("SISPACE_THREADS", "")))
    except ValueError:
        cap = None
    with concurrent.futures.ThreadPoolExecutor(max_workers=cap or min(4, len(cfgs))) as ex:
        rows = list(ex.map(lambda cfg: compare_row(RunContext(cfg.spec, cfg.grid_spec,
                                                              parameters)), cfgs))
    write_compare_csv(out / "compare.csv", compare_header(n_max), rows)
    return EXIT_OK


def _parser():
    p = argparse.ArgumentParser(prog="sispace",
                                description="construct and analyze generators of "
                                            "principal shift-invariant spaces")
    p.add_argument("--version", action="version", version=f"sispace {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("construct", "analyze", "compare"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", action="append", default=[],
                        help="config JSON file (repeatable for compare)")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--format", default=None, help="comma list: json,csv")
        sp.add_argument("--grid", default=None, help="S,Xi or auto")
        sp.add_argument("--n-max", type=int, default=None, dest="n_max")
        sp.add_argument("--eps", type=float, default=None)
        sp.add_argument("--windows", default=None, help="comma list of window sizes")
        sp.add_argument("--analyses", default=None, help="comma list of analyses")
        sp.add_argument("configs", nargs="*", help="config JSON files (positional)")
    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        paths = list(args.config) + list(args.configs)
        if not paths:
            raise ConfigError("no config given (use --config FILE.json)")
        overrides = {key: getattr(args, key) for key in ("out", "grid", "eps", "n_max")}
        overrides.update({
            "formats": args.format.split(",") if args.format else None,
            "windows": args.windows.split(",") if args.windows else None,
            "analyses": args.analyses.split(",") if args.analyses else None,
        })
        cfgs = [RunConfig(load_json(p), overrides) for p in paths]
        if args.command == "construct":
            return cmd_construct(cfgs[0])
        if args.command == "analyze":
            return cmd_analyze(cfgs[0])
        if len(cfgs) < 2:
            raise ConfigError("compare needs at least 2 configs")
        return cmd_compare(cfgs, args.out or cfgs[0].output,
                           n_max=args.n_max or 4)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (GridError, ValueError) as e:
        print(f"numeric precondition violated: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
