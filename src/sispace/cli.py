"""Command-line front end: ``sispace construct | analyze | compare``.

The CLI reads and validates the config (:class:`RunConfig`), then hands a
:class:`~sispace.pipeline.RunContext` to the analysis pipeline in
:mod:`sispace.pipeline`: ``analyze`` runs the named sections, ``compare``
projects one context per generator into a ``compare.csv`` row, and
``construct`` writes the spectrum and signal of one context.

Exit codes: 0 success, 2 config error, 3 numeric precondition violation
(e.g. grid too small, or too large to allocate), 4 I/O failure.  ``analyze``
writes a deterministic ``report.json`` (same config + same version =>
byte-identical bytes) plus CSV tables; wall-clock timings go to a separate
``run_meta.json`` so they never perturb the report.  Each subcommand creates
its output directory only after its computation has succeeded, and every
file goes through :func:`~sispace.report.atomic_writer`.  ``construct``
replaces its three files only once all of them are written, and ``analyze``
removes the report and CSV tables of an earlier run that it did not write
again.
``SISPACE_THREADS`` caps the worker pool used by ``compare``.

The command line is read against the ``_FLAGS`` table: each subcommand takes
the flags listed for it, spelled in full, as ``--flag value`` or
``--flag=value``; anything else is a config error.
"""

from __future__ import annotations

import concurrent.futures
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .generators import GeneratorSpec
from .grid import GridError, _is_hermitian
from .localization import GATE_RANGES, check_windows
from .pipeline import (DECAY_PROBES, DEFAULT_PARAMETERS, SECTIONS, ConfigError,
                       RunContext, compare_header, compare_row, grid_block,
                       load_json)
from .report import (staged_paths, write_compare_csv, write_periodization_csv,
                     write_report, write_signal_csv, write_spectrum_csv,
                     write_windows_csv)

EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_IO = 0, 2, 3, 4

ANALYSES = tuple(SECTIONS)
# every report and CSV table analyze may write (run_meta.json is always written)
ANALYZE_OUTPUTS = ("report.json", "periodization.csv",
                   *(f"windows_{name}.csv" for name in DECAY_PROBES))

# checked when the config is read, before any work and whichever subcommand
# reads it: the gate exponents (the config's "eps" is the gate's epsilon) and
# n_max; each test is written so that NaN fails it
PARAMETER_RANGES = {
    **{"eps" if name == "epsilon" else name: rule for name, rule in GATE_RANGES.items()},
    "n_max": (lambda v: v >= 2, "must be >= 2"),
}


def _config_list(key, value):
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be a JSON list, got {value!r}")
    return value


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
        analyses = _config_list("analyses", overrides.get("analyses")
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
        for key, (ok, rule) in PARAMETER_RANGES.items():
            if not ok(self.parameters[key]):
                raise ConfigError(f"bad parameter {key} = {self._echoed[key]!r}: {rule}")
        # command-line values are echoed typed, as they were parsed
        self._echoed.update({key: self.parameters[key] for key in overridden})
        self.output = overrides.get("out") or obj.get("output", ".")
        self.formats = _config_list("formats", overrides.get("formats")
                                    or obj.get("formats", ["json", "csv"]))
        for f in self.formats:
            if f not in ("json", "csv"):
                raise ConfigError(f"unknown format {f!r}")

    def echo(self):
        return {"generator": self.spec.to_json(), "grid": self.grid_spec,
                "analyses": self.analyses, "parameters": self._echoed,
                "formats": list(self.formats)}


def cmd_construct(cfg: RunConfig):
    ctx = RunContext(cfg.spec, cfg.grid_spec, cfg.parameters)
    spectrum, signal = ctx.spectrum, ctx.signal
    meta = {"generator": cfg.spec.to_json(), "version": __version__,
            "grid": grid_block(ctx), "label": spectrum.label,
            "hermitian": bool(_is_hermitian(np.fft.ifftshift(spectrum.values))),
            "spectrum_meta": spectrum.meta}
    if cfg.spec.kind == "psi":
        p = cfg.spec.psi
        meta["beta_j"] = list(p.block_counts[:p.J])
        meta["gamma_j"] = list(p.block_offsets[:p.J])
        meta["required_half_range"] = p.required_half_range
    out = Path(cfg.output)
    out.mkdir(parents=True, exist_ok=True)
    # all three are written before any replaces an earlier run's file:
    # analyze reads meta.json as the sidecar of whatever spectrum.csv is there
    with staged_paths(out / "spectrum.csv", out / "signal.csv",
                      out / "meta.json") as (spectrum_tmp, signal_tmp, meta_tmp):
        write_spectrum_csv(spectrum_tmp, spectrum)
        write_signal_csv(signal_tmp, signal)
        write_report(meta_tmp, meta)
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
    written = set()
    if "json" in cfg.formats:
        write_report(out / "report.json", {"config": cfg.echo(), "version": __version__,
                                           "grid": grid_block(ctx),
                                           "analyses": analyses})
        written.add("report.json")
    if "csv" in cfg.formats:
        if "periodization" in analyses:
            write_periodization_csv(out / "periodization.csv", ctx.criteria.profile)
            written.add("periodization.csv")
        if "decay" in analyses:
            for name, verdict in ctx.decay_verdicts.items():
                write_windows_csv(out / f"windows_{name}.csv", verdict)
                written.add(f"windows_{name}.csv")
    write_report(out / "run_meta.json", {"wall_clock_s": timings,
                                         "total_s": time.perf_counter() - t_start})
    # an earlier run's report and tables would read as this run's
    for name in ANALYZE_OUTPUTS:
        if name not in written:
            (out / name).unlink(missing_ok=True)
    return EXIT_OK


def cmd_compare(cfgs, out_dir, n_max=4):
    # every generator is probed with the same fixed parameters, not its config's
    parameters = dict(DEFAULT_PARAMETERS, n_max=n_max)
    try:
        cap = max(1, int(os.environ.get("SISPACE_THREADS", "")))
    except ValueError:
        cap = None
    with concurrent.futures.ThreadPoolExecutor(max_workers=cap or min(4, len(cfgs))) as ex:
        rows = list(ex.map(lambda cfg: compare_row(RunContext(cfg.spec, cfg.grid_spec,
                                                              parameters)), cfgs))
    # created only once every row has succeeded, as in analyze and construct
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_compare_csv(out / "compare.csv", compare_header(n_max), rows)
    return EXIT_OK


_COMMANDS = ("construct", "analyze", "compare")


def _comma_list(text):
    return text.split(",") if text else None


# every flag: (key of the parsed value, the commands that take it, its converter);
# --config is repeatable, any other flag keeps its last value
_FLAGS = {
    "--config": ("config", _COMMANDS, str),
    "--out": ("out", _COMMANDS, str),
    "--grid": ("grid", _COMMANDS, str),
    "--n-max": ("n_max", ("analyze", "compare"), int),
    "--format": ("formats", ("analyze",), _comma_list),
    "--eps": ("eps", ("analyze",), float),
    "--windows": ("windows", ("analyze",), _comma_list),
    "--analyses": ("analyses", ("analyze",), _comma_list),
}


def _usage(command):
    if command not in _COMMANDS:
        return f"usage: sispace [-h] [--version] {{{','.join(_COMMANDS)}}} ..."
    flags = "".join(f" [{flag} {key.upper()}]"
                    for flag, (key, commands, _) in _FLAGS.items() if command in commands)
    return f"usage: sispace {command} [-h]{flags} [CONFIG ...]"


def _parse_args(argv):
    """``(command, config paths, overrides)`` from a command line, flags as
    ``--flag value`` or ``--flag=value``; ConfigError if it is malformed."""
    if not argv or argv[0] not in _COMMANDS:
        given = f"unknown command {argv[0]!r}" if argv else "no command given"
        raise ConfigError(f"{given}; choose from {', '.join(_COMMANDS)}")
    command, configs, positional, overrides = argv[0], [], [], {}
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positional.append(token)
            continue
        flag, has_value, value = token.partition("=")
        key, commands, convert = _FLAGS.get(flag, (None, (), None))
        if command not in commands:
            raise ConfigError(f"unrecognized arguments: {token}")
        if not has_value:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise ConfigError(f"argument {flag}: expected one argument")
        try:
            value = convert(value)
        except ValueError:
            raise ConfigError(f"argument {flag}: invalid {convert.__name__} value: "
                              f"{value!r}") from None
        if key == "config":
            configs.append(value)
        else:
            overrides[key] = value
    return command, configs + positional, overrides


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        print(_usage(argv[0]))
        return EXIT_OK
    if argv[:1] == ["--version"]:
        print(f"sispace {__version__}")
        return EXIT_OK
    try:
        command, paths, overrides = _parse_args(argv)
        if not paths:
            raise ConfigError("no config given (use --config FILE.json)")
        if len(paths) > 1 and command != "compare":
            raise ConfigError(f"{command} takes one config, got {len(paths)}")
        cfgs = [RunConfig(load_json(p), overrides) for p in paths]
        if command == "construct":
            return cmd_construct(cfgs[0])
        if command == "analyze":
            return cmd_analyze(cfgs[0])
        if len(cfgs) < 2:
            raise ConfigError("compare needs at least 2 configs")
        return cmd_compare(cfgs, overrides.get("out") or cfgs[0].output,
                           n_max=overrides.get("n_max") or 4)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (GridError, ValueError, MemoryError) as e:
        print(f"numeric precondition violated: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
