"""Command-line front end: ``sispace construct | analyze | compare``.

The CLI reads and validates the config (:class:`RunConfig`), then hands a
:class:`~sispace.pipeline.RunContext` to the analysis pipeline in
:mod:`sispace.pipeline`: ``analyze`` runs the named sections, ``compare``
projects one context per generator into a ``compare.csv`` row, and
``construct`` writes the spectrum and signal of one context.

Exit codes: 0 success, 2 config error (the analysis parameters are read
against ``localization.PARAMETERS``), 3 numeric precondition violation (e.g.
grid too small, or too large to allocate, or a float overflow), 4 I/O
failure.  ``analyze`` writes a deterministic ``report.json`` (same config +
same version => byte-identical bytes) plus CSV tables; wall-clock timings go
to a separate ``run_meta.json`` so they never perturb the report.  Each
subcommand creates its output directory only after its computation has
succeeded, and writes all its files in one
:func:`~sispace.report.staged_paths` set, which replaces them only once all
of them are written; ``analyze`` then removes the report and CSV tables of
an earlier run that it did not write again.

The command line is read against the ``_FLAGS`` table: each subcommand takes
the flags listed for it, spelled in full, as ``--flag value`` or
``--flag=value``; anything else is a config error.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .generators import GeneratorSpec
from .grid import GridError
from .localization import PARAMETERS
from .pipeline import (DECAY_PROBES, SECTIONS, SIDECAR, ConfigError, RunContext,
                       compare_header, compare_row, grid_block, load_json,
                       read_grid, typed_parameters)
from .report import (dumps_deterministic, staged_paths, write_compare_csv,
                     write_periodization_csv, write_report, write_signal_csv,
                     write_spectrum_csv, write_windows_csv)

EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_IO = 0, 2, 3, 4

ANALYSES = tuple(SECTIONS)
# every report and CSV table analyze may write (run_meta.json is always written)
ANALYZE_OUTPUTS = ("report.json", "periodization.csv",
                   *(f"windows_{name}.csv" for name in DECAY_PROBES))


FORMATS = ("json", "csv")


def _config_list(key, value, known):
    """``value`` as a list; ConfigError unless it is a non-empty JSON list of
    names from ``known``."""
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be a JSON list, got {value!r}")
    if not value:
        raise ConfigError(f"{key} must be non-empty")
    bad = [v for v in value if v not in known]
    if bad:
        raise ConfigError(f"unknown {key} {bad}; choose from {known}")
    return list(value)


CONFIG_KEYS = ("generator", "grid", "analyses", "parameters", "output", "formats")


class RunConfig:
    """Validated run description (generator, grid, analyses, parameters).

    ``grid`` is "auto" or a FrequencyGrid and ``parameters`` the typed
    analysis parameters of :func:`~sispace.pipeline.typed_parameters`; the
    report echoes both as written in the config.
    """

    def __init__(self, obj, overrides=None):
        if not isinstance(obj, dict):
            raise ConfigError("config must be a JSON object")
        unknown = [key for key in obj if key not in CONFIG_KEYS]
        if unknown:
            raise ConfigError(f"unknown config keys {unknown}; choose from {CONFIG_KEYS}")
        overrides = overrides or {}
        try:
            self.spec = GeneratorSpec.from_json(obj.get("generator"))
        except (ValueError, TypeError) as e:
            raise ConfigError(f"bad generator spec: {e}") from e
        self.grid_spec = overrides.get("grid", obj.get("grid", "auto"))
        self.grid = read_grid(self.grid_spec)
        self.analyses = _config_list("analyses", overrides.get(
            "analyses", obj.get("analyses", ["periodization", "invariance"])), ANALYSES)
        # checked when the config is read, before any work and whichever
        # subcommand reads it; command-line values win
        given = obj.get("parameters", {})
        if not isinstance(given, dict):
            raise ConfigError("parameters must be a JSON object")
        overridden = {key: value for key, value in overrides.items() if key in PARAMETERS}
        self.parameters = typed_parameters({**given, **overridden})
        # the report echoes the config's values as written, and the command
        # line's typed, as they were parsed
        self._echoed = {**{name: row.default for name, row in PARAMETERS.items()},
                        **given, **overridden}
        output = obj.get("output", ".")
        if not isinstance(output, str):
            raise ConfigError(f"output must be a path string, got {output!r}")
        self.output = overrides.get("out", output)
        self.formats = _config_list("formats", overrides.get(
            "formats", obj.get("formats", list(FORMATS))), FORMATS)

    def echo(self):
        return {"generator": self.spec.to_json(), "grid": self.grid_spec,
                "analyses": self.analyses, "parameters": self._echoed,
                "formats": list(self.formats)}


def cmd_construct(cfg: RunConfig):
    ctx = RunContext(cfg.spec, cfg.grid, cfg.parameters)
    spectrum, signal = ctx.spectrum, ctx.signal
    meta = {"generator": cfg.spec.to_json(), "version": __version__,
            "grid": grid_block(ctx), "label": spectrum.label,
            "hermitian": not np.iscomplexobj(signal.values),
            "spectrum_meta": spectrum.meta}
    if p := cfg.spec.psi:
        meta["beta_j"] = list(p.block_counts[:p.J])
        meta["gamma_j"] = list(p.block_offsets[:p.J])
        meta["required_half_range"] = p.required_half_range
    out = Path(cfg.output)
    # all three are written before any replaces an earlier run's file:
    # analyze reads the sidecar as that of whatever spectrum.csv is there
    with staged_paths(out / "spectrum.csv", out / "signal.csv",
                      out / SIDECAR) as (spectrum_tmp, signal_tmp, meta_tmp):
        write_spectrum_csv(spectrum_tmp, spectrum)
        write_signal_csv(signal_tmp, signal)
        write_report(meta_tmp, meta)
    return EXIT_OK


def cmd_analyze(cfg: RunConfig):
    t_start = time.perf_counter()
    ctx = RunContext(cfg.spec, cfg.grid, cfg.parameters)
    analyses, timings = {}, {}
    for name in ANALYSES:
        if name in cfg.analyses:
            t0 = time.perf_counter()
            analyses[name] = SECTIONS[name](ctx)
            timings[name] = time.perf_counter() - t0
    files = {}   # name: (writer, value), for each file but run_meta.json
    if "json" in cfg.formats:
        report = {"config": cfg.echo(), "version": __version__, "grid": grid_block(ctx),
                  "analyses": analyses}
        dumps_deterministic(report)   # a value it cannot hold fails before the directory exists
        files["report.json"] = write_report, report
    if "csv" in cfg.formats and "periodization" in analyses:
        files["periodization.csv"] = write_periodization_csv, ctx.criteria.profile
    if "csv" in cfg.formats and "decay" in analyses:
        files.update({f"windows_{name}.csv": (write_windows_csv, verdict)
                      for name, verdict in ctx.decay_verdicts.items()})
    out = Path(cfg.output)
    with staged_paths(*(out / name for name in [*files, "run_meta.json"])) as tmps:
        for (write, value), tmp in zip(files.values(), tmps):
            write(tmp, value)
        write_report(tmps[-1], {"wall_clock_s": timings,
                                "total_s": time.perf_counter() - t_start})
    for name in set(ANALYZE_OUTPUTS) - set(files):   # they would read as this run's
        (out / name).unlink(missing_ok=True)
    return EXIT_OK


def cmd_compare(cfgs, out_dir, n_max):
    # every generator is probed with the same fixed parameters, not its config's
    parameters = typed_parameters({"n_max": n_max})
    rows = [compare_row(RunContext(cfg.spec, cfg.grid, parameters)) for cfg in cfgs]
    # created by the set, once every row has succeeded, as in analyze and construct
    with staged_paths(Path(out_dir) / "compare.csv") as (tmp,):
        write_compare_csv(tmp, compare_header(parameters["n_max"]), rows)
    return EXIT_OK


_COMMANDS = ("construct", "analyze", "compare")


def _comma_list(text):
    return text.split(",")


def _float_list(text):
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"bad parameter windows = {text!r}: expected comma-separated "
                          "numbers") from None


# every flag: (key of the parsed value, the commands that take it, its converter);
# --config is repeatable, any other flag keeps its last value
_FLAGS = {
    "--config": ("config", _COMMANDS, str),
    "--out": ("out", _COMMANDS, str),
    "--grid": ("grid", _COMMANDS, str),
    "--n-max": ("n_max", ("analyze", "compare"), int),
    "--format": ("formats", ("analyze",), _comma_list),
    "--eps": ("eps", ("analyze",), float),
    "--windows": ("windows", ("analyze",), _float_list),
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
            if value is not None and value.startswith("--"):
                value = None
        if not value:   # missing or empty
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
        # a float overflow, invalid operation or division by zero raises instead of
        # warning, so it ends in one stderr line; underflow is benign
        with np.errstate(over="raise", invalid="raise", divide="raise"):
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
            return cmd_compare(cfgs, cfgs[0].output, overrides.get("n_max", 4))
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (GridError, ValueError, MemoryError, ArithmeticError) as e:
        print(f"numeric precondition violated: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
