import json
import math
import os
import signal
import subprocess
import sys
import threading
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from sispace import cli
from sispace.cli import main
from sispace.localization import PARAMETERS
from sispace.report import dumps_deterministic, read_spectrum_csv


def write_config(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def test_construct_outputs_and_meta(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "generator": {"variant": "psi", "alpha": 1, "beta": 2, "n": 2, "J": 4},
        "grid": [64, 1024],
        "output": str(tmp_path / "out"),
    })
    assert main(["construct", "--config", cfg]) == 0
    out = tmp_path / "out"
    assert (out / "spectrum.csv").exists()
    assert (out / "signal.csv").exists()
    meta = json.loads((out / "meta.json").read_text())
    assert meta["beta_j"] == [1, 4, 16, 64]
    assert meta["gamma_j"] == [0, 1, 5, 21]
    assert meta["grid"]["samples_per_unit"] == 64


def test_construct_sinc_endpoint_convention(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "generator": {"variant": "sinc"},
        "grid": [64, 4],
        "output": str(tmp_path / "out"),
    })
    assert main(["construct", "--config", cfg]) == 0
    rows = (tmp_path / "out" / "spectrum.csv").read_text().strip().splitlines()[1:]
    re_vals = [float(r.split(",")[2]) for r in rows]
    assert re_vals.count(0.5) == 2
    assert re_vals.count(1.0) == 63


def test_analyze_deterministic(tmp_path):
    cfg_obj = {
        "generator": {"variant": "psi", "alpha": 1, "beta": 2, "n": 2, "J": 2},
        "analyses": ["periodization", "invariance", "gates"],
    }
    cfg = write_config(tmp_path / "c.json", cfg_obj)
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    ra = (tmp_path / "a" / "report.json").read_bytes()
    rb = (tmp_path / "b" / "report.json").read_bytes()
    assert ra == rb
    report = json.loads(ra)
    assert report["analyses"]["periodization"]["m"] == pytest.approx(1.0, abs=1e-10)
    assert report["analyses"]["invariance"]["invariance_group"] == "(1/2)Z"


def test_analyze_sinc_invariance(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "generator": {"variant": "sinc"},
        "analyses": ["invariance"],
        "grid": [256, 8],
    })
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["analyses"]["invariance"]["invariance_group"] == "R-candidate"


def test_construct_then_custom_round_trip(tmp_path):
    base = {
        "generator": {"variant": "psi", "alpha": 1, "beta": 2, "n": 2, "J": 2},
        "analyses": ["periodization", "invariance"],
    }
    cfg = write_config(tmp_path / "c.json", base)
    out1 = tmp_path / "direct"
    cons = tmp_path / "cons"
    assert main(["construct", "--config", cfg, "--out", str(cons)]) == 0
    assert main(["analyze", "--config", cfg, "--out", str(out1)]) == 0

    custom = write_config(tmp_path / "custom.json", {
        "generator": {"variant": "custom", "path": str(cons / "spectrum.csv")},
        "analyses": ["periodization", "invariance"],
    })
    out2 = tmp_path / "reingested"
    assert main(["analyze", "--config", custom, "--out", str(out2)]) == 0
    r1 = json.loads((out1 / "report.json").read_text())["analyses"]
    r2 = json.loads((out2 / "report.json").read_text())["analyses"]
    for key in ("m", "M", "orthonormality_defect"):
        assert abs(r1["periodization"][key] - r2["periodization"][key]) < 1e-12
    assert r1["invariance"]["per_n"] == r2["invariance"]["per_n"]


def test_compare_rows(tmp_path):
    cfgs = [
        write_config(tmp_path / "s.json", {"generator": {"variant": "sinc"}}),
        write_config(tmp_path / "b.json", {"generator": {"variant": "bspline", "degree": 1},
                                           "grid": [64, 256]}),
        write_config(tmp_path / "p.json", {"generator": {"variant": "psi", "alpha": 1,
                                                         "beta": 2, "n": 2, "J": 2}}),
    ]
    out = tmp_path / "cmp"
    args = ["compare", "--out", str(out)]
    for c in cfgs:
        args += ["--config", c]
    assert main(args) == 0
    lines = (out / "compare.csv").read_text().strip().splitlines()
    assert len(lines) == 4
    header = lines[0].split(",")
    assert header[:5] == ["generator", "m", "M", "orthonormality_defect", "invariance_group"]
    sinc_row = lines[1].split(",")
    b_row = lines[2].split(",")
    p_row = lines[3].split(",")
    assert sinc_row[4] == "R-candidate" and sinc_row[-3] == "diverging"
    assert b_row[4] == "Z" and b_row[-3] == "converging"
    assert p_row[4] == "(1/2)Z"


def test_compare_maps_its_rows_on_the_calling_thread(tmp_path, monkeypatch):
    import threading

    from sispace import cli
    threads = []
    row = cli.compare_row

    def recording_row(ctx):
        threads.append(threading.get_ident())
        return row(ctx)

    monkeypatch.setattr(cli, "compare_row", recording_row)
    cfgs = [write_config(tmp_path / f"{name}.json", {"generator": gen, "grid": "64,16"})
            for name, gen in (("s", {"variant": "sinc"}),
                              ("b", {"variant": "bspline", "degree": 1}),
                              ("c", {"variant": "sinc"}))]
    args = ["compare", "--out", str(tmp_path / "cmp")]
    for c in cfgs:
        args += ["--config", c]
    assert main(args) == 0
    assert threads == [threading.get_ident()] * len(cfgs)


def test_compare_duplicate_configs_identical(tmp_path):
    c = write_config(tmp_path / "c.json", {"generator": {"variant": "bspline", "degree": 1},
                                           "grid": [64, 256]})
    out = tmp_path / "cmp"
    assert main(["compare", "--config", c, "--config", c, "--out", str(out)]) == 0
    lines = (out / "compare.csv").read_text().strip().splitlines()
    assert lines[1] == lines[2]


def test_compare_gate_column_differs(tmp_path):
    a = write_config(tmp_path / "a.json", {"generator": {"variant": "psi", "alpha": 3,
                                                         "beta": 1, "n": 2, "J": 3}})
    b = write_config(tmp_path / "b.json", {"generator": {"variant": "psi", "alpha": 1,
                                                         "beta": 2, "n": 2, "J": 2}})
    out = tmp_path / "cmp"
    assert main(["compare", "--config", a, "--config", b, "--out", str(out)]) == 0
    lines = (out / "cmp" if False else out / "compare.csv").read_text().strip().splitlines()
    assert lines[1].split(",")[-1] == "True"
    assert lines[2].split(",")[-1] == "False"


def test_exit_codes(tmp_path):
    assert main(["analyze", "--config", str(tmp_path / "missing.json")]) == 2
    bad = write_config(tmp_path / "bad.json",
                       {"generator": {"variant": "bspline", "degree": 30}})
    assert main(["analyze", "--config", bad]) == 2
    small = write_config(tmp_path / "small.json",
                         {"generator": {"variant": "psi", "alpha": 1, "beta": 2,
                                        "n": 2, "J": 4},
                          "grid": [64, 32]})
    assert main(["analyze", "--config", small, "--out", str(tmp_path / "x")]) == 3
    unknown = write_config(tmp_path / "unk.json",
                           {"generator": {"variant": "sinc"},
                            "analyses": ["spectroscopy"]})
    assert main(["analyze", "--config", unknown]) == 2


def test_cli_grid_override(tmp_path):
    cfg = write_config(tmp_path / "c.json", {"generator": {"variant": "sinc"}})
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--grid", "128,8",
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["grid"]["samples_per_unit"] == 128
    assert report["grid"]["half_range"] == 8


# a value off its default for each flag that sets an analysis parameter
FLAG_PARAMETER_TEXT = {"eps": "0.25", "n_max": "3", "windows": "1,2,4,8"}


@pytest.mark.parametrize("flag", [flag for flag, (key, _, _) in cli._FLAGS.items()
                                  if key in PARAMETERS])
def test_each_parameter_flag_sets_its_parameter_and_the_report_echo(tmp_path, flag):
    key, _, convert = cli._FLAGS[flag]
    assert key in FLAG_PARAMETER_TEXT, f"give {flag} a value off its default here"
    text = FLAG_PARAMETER_TEXT[key]
    value = convert(text)
    assert value != PARAMETERS[key].default
    obj = {"generator": {"variant": "sinc"}, "grid": "64,8", "analyses": ["gates"]}
    cfg = write_config(tmp_path / "c.json", obj)
    _, _, overrides = cli._parse_args(["analyze", flag, text, cfg])
    assert cli.RunConfig(obj, overrides).parameters[key] == value
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, flag, text, "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["config"]["parameters"][key] == value


def test_console_script_version():
    res = subprocess.run([sys.executable, "-m", "sispace.cli", "--version"],
                         capture_output=True, text=True)
    assert res.returncode == 0
    assert "sispace" in res.stdout


def test_cli_import_leaves_scipy_unloaded():
    # nothing the CLI imports needs scipy; hashlib (with OpenSSL) is not
    # needed either, temp names come from os.urandom; and the command line is
    # read from a flag table, with no argparse and so no gettext or locale
    modules = ("scipy", "hashlib", "argparse", "gettext", "locale")
    res = subprocess.run([sys.executable, "-c",
                          "import sys, sispace.cli; "
                          f"print(*(m in sys.modules for m in {modules!r}))"],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["False"] * len(modules)


def test_psi_analyze_runs_with_scipy_blocked(tmp_path):
    # a None entry in sys.modules makes every import of scipy fail
    cfg = write_config(tmp_path / "c.json", {
        "generator": {"variant": "psi", "alpha": 1, "beta": 2, "n": 2, "J": 2},
        "analyses": ["periodization", "invariance", "decay", "pointwise", "gates", "suite"],
        "parameters": {"windows": [1, 2, 4, 8]},
    })
    out = tmp_path / "out"
    script = ("import sys\n"
              "sys.modules['scipy'] = None\n"
              "from sispace.cli import main\n"
              f"sys.exit(main(['analyze', '--config', {cfg!r}, '--out', {str(out)!r}]))\n")
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    for name in ("report.json", "run_meta.json", "periodization.csv",
                 "windows_integrability.csv", "windows_second_moment_heavy.csv",
                 "windows_second_moment_light.csv"):
        assert (out / name).stat().st_size > 0, name


@pytest.mark.parametrize("argv, code, stream, text", [
    (["analyze", "--config", "{cfg}", "--n-max=5", "--out", "{out}"], 0, None, None),
    (["analyze", "--conf", "{cfg}"], 2, "err", "unrecognized arguments: --conf"),
    (["analyze", "--config"], 2, "err", "argument --config: expected one argument"),
    (["analyze", "--config", "{cfg}", "--out"], 2, "err",
     "argument --out: expected one argument"),
    (["analyse", "--config", "{cfg}"], 2, "err", "unknown command 'analyse'"),
    ([], 2, "err", "no command given"),
    (["-h"], 0, "out", "usage: sispace [-h] [--version] {construct,analyze,compare}"),
    (["compare", "--help"], 0, "out", "usage: sispace compare [-h] [--config CONFIG]"),
    # an empty value is refused as a missing one is, never read as absent
    (["analyze", "--config", "{cfg}", "--out="], 2, "err",
     "argument --out: expected one argument"),
    (["analyze", "--config", "{cfg}", "--grid", ""], 2, "err",
     "argument --grid: expected one argument"),
    (["analyze", "--config", "{cfg}", "--format="], 2, "err",
     "argument --format: expected one argument"),
    (["analyze", "--config", "{cfg}", "--analyses="], 2, "err",
     "argument --analyses: expected one argument"),
    (["analyze"], 2, "err", "no config given"),
    (["compare", "--config", "{cfg}"], 2, "err", "compare needs at least 2 configs"),
], ids=["n-max-equals", "abbreviated-flag", "missing-config-value", "missing-out-value",
        "unknown-command", "bare", "help", "compare-help", "empty-out", "empty-grid",
        "empty-format", "empty-analyses", "no-config", "compare-one-config"])
def test_command_line_exit_codes(tmp_path, capsys, argv, code, stream, text):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "c.json", {"generator": {"variant": "sinc"},
                                             "grid": "64,4", "analyses": ["invariance"],
                                             "output": str(out)})
    assert main([arg.format(cfg=cfg, out=out) for arg in argv]) == code
    captured = capsys.readouterr()
    if stream is None:
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["parameters"]["n_max"] == 5
        return
    lines = getattr(captured, stream).strip().splitlines()
    assert len(lines) == 1 and text in lines[0]
    if code == 2:
        assert lines[0].startswith("config error:") and not captured.out
        assert not out.exists()


def test_window_past_the_valid_span_exits_3_with_one_line(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", {
        "generator": {"variant": "psi", "alpha": 1, "beta": 2, "n": 2, "J": 2},
        "analyses": ["decay"], "parameters": {"windows": [100, 200, 300, 400]}})
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["numeric precondition violated: window 400.0 exceeds the analytic "
                   "route's table validity 256.0"]
    assert not out.exists()


@pytest.mark.parametrize("degree, grid", [(1, "64,2"), (3, "16,2")])
def test_envelope_exponent_on_too_narrow_a_grid_exits_3_with_one_line(tmp_path, capsys,
                                                                      degree, grid):
    # the bspline envelope exponent fits the unit-interval peaks from offset 2
    # on: below half_range 4 it has fewer than two to fit
    cfg = write_config(tmp_path / "c.json", {
        "generator": {"variant": "bspline", "degree": degree}, "grid": grid,
        "analyses": ["pointwise"]})
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["numeric precondition violated: the envelope exponent needs two nonzero "
                   "unit-interval peaks from offset 2 on, so half_range >= 4; have 2"]
    assert not out.exists()


def test_compare_refuses_a_bad_grid_before_it_builds_a_row(tmp_path, capsys, monkeypatch):
    from sispace import pipeline
    built = []
    build = pipeline.build

    def counting_build(spec, grid):
        built.append(spec.kind)
        return build(spec, grid)

    monkeypatch.setattr(pipeline, "build", counting_build)
    good = write_config(tmp_path / "a.json", {"generator": {"variant": "sinc"}, "grid": "64,16"})
    bad = write_config(tmp_path / "b.json", {"generator": {"variant": "sinc"}, "grid": "x"})
    out = tmp_path / "cmp"
    assert main(["compare", "--config", good, "--config", bad, "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["config error: bad grid 'x'; expected S,Xi or auto"]
    assert built == [] and not out.exists()
    # the same compare with two good configs builds both rows
    assert main(["compare", "--config", good, "--config", good, "--out", str(out)]) == 0
    assert built == ["sinc", "sinc"]


def test_deterministic_dumps_float_format():
    text = dumps_deterministic({"x": 1.0 / 3.0, "n": 5, "flag": True, "none": None})
    assert "0.33333333333333331" in text
    assert json.loads(text) == {"x": 1.0 / 3.0, "n": 5, "flag": True, "none": None}


def test_read_spectrum_round_trips_grid(tmp_path):
    from sispace.generators import build_sinc
    from sispace.grid import FrequencyGrid
    from sispace.report import write_spectrum_csv
    g = FrequencyGrid(64, 4)
    spec = build_sinc(g)
    write_spectrum_csv(tmp_path / "s.csv", spec)
    back = read_spectrum_csv(tmp_path / "s.csv")
    assert back.grid == g
    assert np.array_equal(np.asarray(back.values, dtype=complex),
                          np.asarray(spec.values, dtype=complex))


def test_write_windows_csv_from_verdict(tmp_path):
    from sispace.generators import PsiParams
    from sispace.localization import divergence_probes
    from sispace.report import write_windows_csv
    v, = divergence_probes(PsiParams(1.0, 2.0, 2, 2), [(2, 1.75)], [2, 4, 8, 16])
    write_windows_csv(tmp_path / "w.csv", v)
    lines = (tmp_path / "w.csv").read_text().strip().splitlines()
    assert lines[0] == "T,partial,increment"
    assert len(lines) == 5
    t, partial, inc = lines[1].split(",")
    assert float(t) == 2.0 and float(partial) == float(inc)


def test_analyze_suite_matches_library_suite(tmp_path):
    from sispace import GeneratorSpec, PsiParams, run_witness_suite
    cfg = write_config(tmp_path / "c.json", {
        "generator": {"variant": "psi", "alpha": 1, "beta": 2, "n": 2, "J": 2},
    })
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--analyses", "suite",
                 "--windows", "2,4,8,16", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    spec = GeneratorSpec(kind="psi", psi=PsiParams(1.0, 2.0, 2, 2))
    expected = run_witness_suite(spec, windows=[2.0, 4.0, 8.0, 16.0])
    assert report["analyses"]["suite"] == json.loads(dumps_deterministic(expected))
    assert report["analyses"]["suite"]["decay"]["probe_truncation"] == 4


@pytest.mark.parametrize("generator, windows", [
    ({"variant": "psi", "alpha": 1, "beta": 2, "n": 2, "J": 2}, [2, 4, 8, 16]),
    ({"variant": "sinc"}, None),
    ({"variant": "bspline", "degree": 3}, None),
])
def test_suite_is_the_other_sections_tagged(tmp_path, generator, windows):
    from sispace.pipeline import SECTIONS
    cfg = {"generator": generator, "analyses": list(SECTIONS)}
    if windows:
        cfg["parameters"] = {"windows": windows}
    out = tmp_path / "out"
    assert main(["analyze", "--config", write_config(tmp_path / "c.json", cfg),
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    analyses = report["analyses"]
    suite = analyses["suite"]
    assert suite["generator"] == report["config"]["generator"]
    assert suite["grid"] == report["grid"]
    assert list(suite) == ["generator", "grid", *(name for name in SECTIONS if name != "suite")]
    for name in SECTIONS:
        if name != "suite":
            tagged = dict(suite[name])
            assert tagged.pop("checks")
            assert tagged == analyses[name]


def test_custom_spectrum_runs_suite(tmp_path):
    cfg = write_config(tmp_path / "c.json", {"generator": {"variant": "sinc"},
                                             "grid": "64,4"})
    assert main(["construct", "--config", cfg, "--out", str(tmp_path / "c")]) == 0
    custom = write_config(tmp_path / "custom.json", {
        "generator": {"variant": "custom", "path": str(tmp_path / "c" / "spectrum.csv")},
        "analyses": ["suite"],
    })
    out = tmp_path / "out"
    assert main(["analyze", "--config", custom, "--out", str(out)]) == 0
    suite = json.loads((out / "report.json").read_text())["analyses"]["suite"]
    assert suite["grid"]["sizing"] == {"rule": "from-file"}
    assert suite["invariance"]["invariance_group"] == "R-candidate"


def count_probe_points(monkeypatch, tmp_path):
    """The sizes of the evaluations the decay probes make, as they are made:
    every lattice piece passes through ``evaluate_psi_time``.  Each size is
    appended to a file, so the pieces of forked workers count too; the
    returned function reads them back."""
    from sispace import generators
    log = tmp_path / "points.txt"
    log.touch()
    evaluate = generators.evaluate_psi_time

    def counting_evaluate(x, params):
        with open(log, "a") as fh:
            fh.write(f"{np.asarray(x, dtype=float).size}\n")
        return evaluate(x, params)

    monkeypatch.setattr(generators, "evaluate_psi_time", counting_evaluate)
    return lambda: [int(size) for size in log.read_text().split()]


def probe_lattice_bounds(params, windows):
    """Fewest and most points one lattice pass evaluates: M + 1, plus one per seam."""
    from dataclasses import replace

    from sispace import localization
    depth = localization.truncation_depth_for_span(params.alpha, windows[-1])
    probe = replace(params, J=max(params.J, depth))
    M = round(windows[-1] * 2 ** localization._lattice_exponent(probe))
    return M + 1, M + 1 + len(windows) - 1 + M // localization.PROBE_CHUNK


def test_decay_and_suite_evaluate_the_probe_lattice_once(tmp_path, monkeypatch):
    from sispace.generators import PsiParams
    points = count_probe_points(monkeypatch, tmp_path)
    windows = [2, 4, 8, 16]
    cfg = write_config(tmp_path / "c.json", {
        "generator": {"variant": "psi", "alpha": 1, "beta": 2, "n": 2, "J": 2},
        "analyses": ["decay", "suite"],
        "parameters": {"windows": windows},
    })
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    fewest, most = probe_lattice_bounds(PsiParams(1.0, 2.0, 2, 2), windows)
    assert fewest <= sum(points()) <= most


def test_compare_evaluates_each_probe_lattice_once(tmp_path, monkeypatch):
    # each row reads its context's one decay pass
    from sispace.generators import PsiParams
    from sispace.localization import DEFAULT_WINDOWS
    points = count_probe_points(monkeypatch, tmp_path)
    psis = [PsiParams(2.0, 1.0, 2, 2), PsiParams(2.0, 2.0, 3, 2)]
    cfgs = [write_config(tmp_path / f"psi{i}.json",
                         {"generator": {"variant": "psi", **asdict(params)}})
            for i, params in enumerate(psis)]
    cfgs.append(write_config(tmp_path / "sinc.json", {"generator": {"variant": "sinc"}}))
    assert main(["compare", *cfgs, "--out", str(tmp_path / "cmp")]) == 0
    bounds = [probe_lattice_bounds(params, DEFAULT_WINDOWS) for params in psis]
    assert sum(lo for lo, _ in bounds) <= sum(points()) <= sum(hi for _, hi in bounds)


@pytest.mark.parametrize("extra, message", [
    ({"parameters": {"J": 3}}, "set generator.J instead"),
    ({"grid": {"S": 64}}, "bad grid"),
    ({"grid": [64]}, "bad grid"),
    ({"parameters": {"eps": "x"}}, "bad parameter eps"),
    ({"parameters": {"windows": 5}}, "bad parameter windows"),
    ({"parameters": {"windows": [8, 4, 2, 1]}}, "strictly increasing"),
    ({"parameters": {"windows": [2, 4, 8]}}, "need at least 4"),
    ({"parameters": {"windows": [0, 2, 4, 8]}}, "positive"),
    ({"argv": ["--windows", "4,x"]}, "bad parameter windows"),
    ({"argv": ["--n-max", "x"]}, "invalid int value"),
    ({"command": "construct", "argv": ["--eps", "0.3"]}, "unrecognized arguments: --eps"),
    ({"argv": ["--config", "{cfg}"]}, "analyze takes one config, got 2"),
    ({"command": "construct", "argv": ["{cfg}"]}, "construct takes one config, got 2"),
    ({"generator": {"variant": "psi", "alpha": math.nan, "beta": 2, "n": 2, "J": 2}},
     "alpha and beta must be positive and finite"),
    ({"generator": {"variant": "psi", "alpha": math.inf, "beta": 2, "n": 2, "J": 2}},
     "alpha and beta must be positive and finite"),
    ({"generator": {"variant": "psi", "alpha": 1, "beta": math.inf, "n": 2, "J": 2}},
     "alpha and beta must be positive and finite"),
    ({"parameters": {"n_max": 1}}, "bad parameter n_max = 1: must be >= 2"),
    ({"argv": ["--n-max", "0"]}, "bad parameter n_max = 0: must be >= 2"),
    ({"analyses": "decay"}, "analyses must be a JSON list, got 'decay'"),
    ({"formats": "json"}, "formats must be a JSON list, got 'json'"),
    ({"analyses": ["gates"], "parameters": {"eps": -1}}, "bad parameter eps = -1: must be > 0"),
    ({"analyses": ["gates"], "parameters": {"p": 3}}, "bad parameter p = 3: must lie in [1, 2)"),
    ({"analyses": ["gates"], "parameters": {"q": 0.5}}, "bad parameter q = 0.5: must be >= 1"),
    ({"analyses": ["gates"], "parameters": {"delta": 0}}, "bad parameter delta = 0: must be > 0"),
    ({"analyses": ["gates"], "parameters": {"gamma": -1}},
     "bad parameter gamma = -1: must be >= 0"),
    # the ranges hold for every subcommand's config, read or not
    ({"command": "construct", "parameters": {"p": 3}}, "bad parameter p = 3: must lie in [1, 2)"),
    ({"command": "compare", "parameters": {"eps": 0}}, "bad parameter eps = 0: must be > 0"),
    # a grid holds integers, never truncated or coerced
    ({"grid": [64.9, 4.2]}, "bad grid"),
    ({"grid": {"S": "64", "Xi": True}}, "bad grid"),
    ({"grid": [math.inf, 4]}, "bad grid"),
    # a psi whose block table leaves float range: 2**alpha and 2**beta overflow
    ({"generator": {"variant": "psi", "alpha": 1e300, "beta": 2, "n": 2, "J": 2}},
     "bad generator spec: alpha = 1e+300, beta = 2 and J = 2 put the block table out of"),
    ({"generator": {"variant": "psi", "alpha": 1, "beta": 1e300, "n": 2, "J": 2}},
     "bad generator spec: alpha = 1, beta = 1e+300 and J = 2 put the block table out of"),
    ({"parameters": {"K": -3}}, "bad parameter K = -3: must be >= 0"),
    # a custom path with no name fails as a named directory does
    ({"generator": {"variant": "custom", "path": "."}},
     "cannot read custom spectrum: [Errno 21] Is a directory: '.'"),
    ({"generator": {"variant": "custom", "path": "/"}},
     "cannot read custom spectrum: [Errno 21] Is a directory: '/'"),
    # each parameter is read by its PARAMETERS row: integers are never truncated,
    # numbers never come from strings or booleans
    ({"parameters": {"n_max": 4.7}}, "bad parameter n_max = 4.7: n_max must be an integer"),
    ({"parameters": {"K": 2.9}}, "bad parameter K = 2.9: K must be an integer"),
    ({"parameters": {"n_max": "8"}}, "bad parameter n_max = '8': n_max must be an integer"),
    ({"parameters": {"eps": "0.25"}}, "bad parameter eps = '0.25': eps must be a number"),
    ({"parameters": {"eps": True}}, "bad parameter eps = True: eps must be a number, got true"),
    ({"generator": {"variant": "psi", "alpha": "1", "beta": 2, "n": 2, "J": 2}},
     'bad generator spec: alpha must be a number, got "1"'),
    ({"generator": {"variant": "psi", "alpha": True, "beta": 2, "n": 2, "J": 2}},
     "bad generator spec: alpha must be a number, got true"),
    ({"parameters": {"windows": "1234"}},
     "bad parameter windows = '1234': windows must be a list of numbers"),
    ({"parameters": {"windows": [True, 2, 3, 4]}},
     "bad parameter windows = [True, 2, 3, 4]: each of windows must be a number, got true"),
    ({"parameters": {"epsilon": 0.3}}, "unknown parameters ['epsilon']; choose from ('eps',"),
    ({"parameters": {"s": math.nan}}, "bad parameter s = nan: must be >= 0"),
    # checked when the config is read, though --out names the directory
    ({"output": 5}, "output must be a path string, got 5"),
    ({"output": ["x"]}, "output must be a path string, got ['x']"),
    # a key the config or its variant does not take is refused, never ignored
    ({"generator": {"variant": "psi", "alpha": 1, "beta": 2, "n": 2, "j": 2}},
     "bad generator spec: PsiParams.__init__() got an unexpected keyword argument 'j'"),
    ({"analysis": ["decay"]}, "unknown config keys ['analysis']; choose from ('generator',"),
    ({"generator": {"variant": "sinc", "degree": 3}}, "bad generator spec: sinc takes no degree"),
    ({"generator": {"variant": "bspline", "degree": 3, "alpha": 1, "beta": 2, "n": 2, "J": 2}},
     "bad generator spec: GeneratorSpec.__init__() got an unexpected keyword argument 'alpha'"),
    # a path is a string, never coerced to a file name
    ({"generator": {"variant": "custom", "path": 5}},
     "bad generator spec: path must be a string, got 5"),
    # a NaN integer field names itself and its rule, never int()'s conversion error
    ({"generator": {"variant": "psi", "alpha": 1, "beta": 2, "n": math.nan, "J": 2}},
     "bad generator spec: n must be an integer, got NaN"),
    ({"generator": {"variant": "psi", "alpha": 1, "beta": 2, "n": 2, "J": math.nan}},
     "bad generator spec: J must be an integer, got NaN"),
    ({"generator": {"variant": "bspline", "degree": math.nan}},
     "bad generator spec: degree must be an integer, got NaN"),
    ({"parameters": {"n_max": math.nan}},
     "bad parameter n_max = nan: n_max must be an integer, got NaN"),
    ({"parameters": {"K": math.nan}}, "bad parameter K = nan: K must be an integer, got NaN"),
    # formats is read as analyses is: a non-empty list of known names
    ({"formats": []}, "formats must be non-empty"),
    # a grid object takes S and Xi only, as the config takes its own keys only
    ({"grid": {"S": 64, "Xi": 64, "extra": 1}},
     "bad grid {'S': 64, 'Xi': 64, 'extra': 1}; an object takes the keys S and Xi only"),
])
def test_config_errors_exit_2_with_one_line(tmp_path, capsys, extra, message):
    extra = dict(extra)
    command = extra.pop("command", "analyze")
    raw = extra.pop("argv", [])
    cfg = write_config(tmp_path / "c.json", {
        "generator": {"variant": "psi", "alpha": 1, "beta": 2, "n": 2, "J": 2},
        **extra,
    })
    argv = [arg.format(cfg=cfg) for arg in raw]
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), *argv]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error:") and message in err[0]
    assert not out.exists()


@pytest.mark.parametrize("analysis, parameters, message", [
    ("gates", {"delta": 1e300}, "overflow encountered in power"),
    ("pointwise", {"s": math.inf}, "invalid value encountered in multiply"),
    ("decay", {"eps": 1e10, "windows": [1, 2, 4, 8]}, "overflow encountered in power"),
])
def test_float_overflow_exits_3_with_one_line(tmp_path, capsys, analysis, parameters,
                                              message):
    # in range, yet a weight (1 + |x|)**w leaves float range: numpy raises, never warns
    cfg = write_config(tmp_path / "c.json", {
        "generator": {"variant": "psi", "alpha": 1, "beta": 2, "n": 2, "J": 2},
        "analyses": [analysis], "parameters": parameters})
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"numeric precondition violated: {message}"]
    assert not out.exists()


def test_report_value_out_of_json_exits_3_with_no_directory(tmp_path, capsys):
    # "delta": inf is in its range (> 0), yet the report that echoes it cannot be
    # written; the run fails before its output directory exists
    cfg = write_config(tmp_path / "c.json", {
        "generator": {"variant": "sinc"}, "grid": "32,512", "analyses": ["suite"],
        "parameters": {"delta": math.inf, "windows": [1, 2, 4, 8]}})
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["numeric precondition violated: reports must not contain NaN or infinity"]
    assert not out.exists()


NESTED = "[" * 100_000 + "]" * 100_000
PSI = '"variant": "psi", "alpha": 1, "beta": 2'


def _psi_spectrum(J, grid, beta=2):
    from sispace.generators import PsiParams, build_psi_spectrum
    from sispace.grid import FrequencyGrid
    return build_psi_spectrum(PsiParams(1, beta, 2, J), FrequencyGrid(*grid))


@pytest.mark.parametrize("config, sidecar, message", [
    # the config file itself
    (b'{"generator": {"variant": "sinc"}, "output": "\xff"}', None, "is not UTF-8"),
    (NESTED.encode(), None, "nested too deeply"),
    # the meta.json sidecar of a custom spectrum
    (None, b'{"label": "\xff"}', "is not UTF-8"),
    (None, NESTED.encode(), "nested too deeply"),
    # the generator spec
    (b'{"generator": []}', None, "bad generator spec: expected a JSON object, got list"),
    (b'{"generator": 5}', None, "bad generator spec: expected a JSON object, got int"),
    (b'{"generator": "[1]"}', None, "bad generator spec: expected a JSON object, got list"),
    (json.dumps({"generator": NESTED}).encode(), None,
     "bad generator spec: JSON nested too deeply"),
    (b'{"generator": {"variant": "bspline", "degree": 1e400}}', None,
     "bad generator spec: cannot convert float infinity to integer"),
    (f'{{"generator": {{{PSI}, "n": 1e400, "J": 2}}}}'.encode(), None,
     "bad generator spec: cannot convert float infinity to integer"),
    (f'{{"generator": {{{PSI}, "n": 2, "J": -1e400}}}}'.encode(), None,
     "bad generator spec: cannot convert float infinity to integer"),
    # integer fields take integral JSON numbers only, never truncated or coerced
    (b'{"generator": {"variant": "bspline", "degree": 2.7}}', None,
     "bad generator spec: degree must be an integer, got 2.7"),
    (f'{{"generator": {{{PSI}, "n": 2.5, "J": 2}}}}'.encode(), None,
     "bad generator spec: n must be an integer, got 2.5"),
    (f'{{"generator": {{{PSI}, "n": 2, "J": true}}}}'.encode(), None,
     "bad generator spec: J must be an integer, got true"),
    (b'{"generator": {"variant": "bspline", "degree": "3"}}', None,
     'bad generator spec: degree must be an integer, got "3"'),
    # the config's own shape
    (b"{", None, "bad JSON in"),
    (b"[1]", None, "config must be a JSON object"),
    (b'{"generator": {"variant": "sinc"}, "parameters": 5}', None,
     "parameters must be a JSON object"),
    # the generator sits under "generator", never at the top level
    (b'{"variant": "sinc"}', None, "unknown config keys ['variant']"),
    # the sidecar's shape, and the values the analyses read from it
    (None, b"[1]", "meta.json: it and its spectrum_meta must be JSON objects"),
    (None, b'{"spectrum_meta": [1]}', "meta.json: it and its spectrum_meta must be JSON objects"),
    (None, b'{"spectrum_meta": {"exclusion_halfwidth": "x"}}',
     'meta.json: exclusion_halfwidth must be a number, got "x"'),
    (None, b'{"spectrum_meta": {"blocks": 5}}',
     "meta.json: blocks need the psi parameters they come from"),
    # a J = 2 sidecar from a 64,64 grid beside the J = 1 spectrum on 64,16
    (None, json.dumps({"spectrum_meta": _psi_spectrum(2, (64, 64)).meta}).encode(),
     "meta.json: the blocks of psi(a=1 b=2 n=2 J=2) need half_range >= 43, the spectrum has 16"),
    # the sidecar of psi(1, 1, 2, J=2) on 64,64, whose blocks fit 64,16, beside that spectrum
    (None, json.dumps({"grid": {"samples_per_unit": 64, "half_range": 64},
                       "spectrum_meta": _psi_spectrum(2, (64, 64), beta=1).meta}).encode(),
     "meta.json: its grid has samples_per_unit and half_range [64, 64], the spectrum [64, 16]"),
    (None, b'{"grid": "64,16"}', 'meta.json: its grid must be a JSON object, got "64,16"'),
], ids=["config-bytes", "config-nesting", "sidecar-bytes", "sidecar-nesting",
        "spec-list", "spec-int", "spec-string-list", "spec-string-nesting",
        "degree-overflow", "n-overflow", "J-overflow",
        "degree-fraction", "n-fraction", "J-bool", "degree-string",
        "not-json", "json-list", "parameters-not-object", "flat-config",
        "sidecar-list", "spectrum-meta-list", "halfwidth-string", "blocks-int",
        "blocks-beyond-grid", "sidecar-from-another-grid", "sidecar-grid-string"])
def test_unreadable_config_or_spec_exits_2_with_one_line(tmp_path, capsys, config, sidecar,
                                                         message):
    if sidecar is not None:   # beside the spectrum of psi(1, 2, 2, J=1) on 64,16
        from sispace.report import write_spectrum_csv
        write_spectrum_csv(tmp_path / "spectrum.csv", _psi_spectrum(1, (64, 16)))
        (tmp_path / "meta.json").write_bytes(sidecar)
        config = json.dumps({"generator": {"variant": "custom",
                                           "path": str(tmp_path / "spectrum.csv")},
                             "analyses": ["periodization", "pointwise"]}).encode()
    (tmp_path / "c.json").write_bytes(config)
    out = tmp_path / "out"
    assert main(["analyze", "--config", str(tmp_path / "c.json"), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error:") and message in err[0]
    if sidecar is not None:   # the line names the sidecar
        assert str(tmp_path / "meta.json") in err[0]
    assert not out.exists()


@pytest.mark.parametrize("corrupt", ["one row", "nan", "inf", "repeated xi", "huge xi",
                                     "off-grid xi", "empty", "header only", "not a number",
                                     "no im column", "not utf-8", "first row not a number",
                                     "first row no im column"])
def test_malformed_custom_spectrum_exits_3_with_one_line(tmp_path, capsys, corrupt):
    from sispace.generators import build_sinc
    from sispace.grid import FrequencyGrid
    from sispace.report import write_spectrum_csv
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(path, build_sinc(FrequencyGrid(32, 2)))
    rows = [line.split(",") for line in path.read_text().splitlines()]
    if corrupt == "one row":
        rows = rows[:2]
    elif corrupt == "repeated xi":   # spacing 0
        rows[2][1] = rows[1][1]
    elif corrupt == "huge xi":       # spacing overflows to inf
        rows[1][1], rows[2][1] = "-1e308", "1e308"
    elif corrupt == "off-grid xi":   # the first two xi rebuild the grid; row 10 is off it
        rows[10][1] = "123.5"
    elif corrupt == "empty":
        rows = []
    elif corrupt == "header only":
        rows = rows[:1]
    elif corrupt == "no im column":
        rows[5] = rows[5][:3]
    elif corrupt == "first row no im column":
        rows[1] = rows[1][:3]
    elif corrupt == "first row not a number":
        rows[1][2] = "x"
    else:   # "\udcff" is written as the byte 0xff, which UTF-8 never holds
        rows[5][2] = {"not a number": "x", "not utf-8": "\udcff"}.get(corrupt, corrupt)
    text = "".join(",".join(row) + "\n" for row in rows)
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    cfg = write_config(tmp_path / "c.json", {
        "generator": {"variant": "custom", "path": str(path)},
        "analyses": ["periodization", "invariance"],
    })
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # a warning would print lines of its own
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("numeric precondition violated:") and str(path) in err[0]
    if corrupt == "off-grid xi":
        assert "row 10 has xi = 123.5" in err[0]
    # an unreadable row is counted from 1 after the header, as an off-grid one is
    row = {"not a number": 5, "no im column": 5, "not utf-8": 5,
           "first row not a number": 1, "first row no im column": 1}.get(corrupt)
    if row is not None:
        assert f"{path} row {row} is not UTF-8 with a number" in err[0]
    assert not out.exists()


def test_unallocatable_grid_exits_3_with_one_line(tmp_path, capsys):
    # 2^47 samples (1 PiB of float64) is beyond the address space, so the
    # allocation fails at once whatever the overcommit policy
    cfg = write_config(tmp_path / "c.json", {"generator": {"variant": "sinc"},
                                             "grid": "8388608,8388608"})
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("numeric precondition violated:")
    assert not out.exists()


def test_probe_deepened_beyond_the_block_table_exits_3_with_one_line(tmp_path, capsys):
    # the config's J = 2 is fine; a window of 1e300 deepens the probe to J = 997,
    # where 2**(J*beta) leaves float range
    cfg = write_config(tmp_path / "c.json", {
        "generator": {"variant": "psi", "alpha": 1, "beta": 2, "n": 2, "J": 2},
        "analyses": ["decay"], "parameters": {"windows": [1, 2, 4, 1e300]}})
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["numeric precondition violated: alpha = 1, beta = 2 and J = 997 put the "
                   "block table out of float range"]
    assert not out.exists()


@pytest.mark.parametrize("n, J, windows, message", [
    (1e300, 3, [1, 2, 4, 8], "step 2^-1006 holds 5.49e+303 points"),
    (10 ** 6, 3, [1, 2, 4, 8], "step 2^-30 holds 8.59e+09 points"),
    (2, 10, None, "step 2^-25 holds 2.15e+09 points"),   # the README family at J = 10
])
def test_probe_lattice_beyond_the_cap_exits_3_with_one_line(tmp_path, capsys, n, J, windows,
                                                            message):
    # the lattice step shrinks with n and with the depth; the pass is refused
    # before any table or segment list is built
    cfg = write_config(tmp_path / "c.json", {
        "generator": {"variant": "psi", "alpha": 1, "beta": 2, "n": n, "J": J},
        "analyses": ["decay"], **({"parameters": {"windows": windows}} if windows else {})})
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"numeric precondition violated: the probe lattice at {message}, "
                   "more than the cap 2^30"]
    assert not out.exists()


def test_huge_n_gates_and_pointwise_exit_0(tmp_path):
    # the copy centers n*(gamma_j + l) reach 1e300: far beyond int64, finite as floats
    cfg = write_config(tmp_path / "c.json", {
        "generator": {"variant": "psi", "alpha": 1, "beta": 2, "n": 1e300, "J": 3},
        "grid": "32,512", "analyses": ["gates", "pointwise"]})
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report["analyses"]) == {"gates", "pointwise"}


def test_compare_n_max_beyond_the_grid_exits_3_with_one_line(tmp_path, capsys):
    # compare keeps one inv_n column per n <= n_max, so it cannot cap n_max
    # to the grid as analyze does
    cfgs = [write_config(tmp_path / f"{name}.json", {"generator": gen, "grid": "64,4"})
            for name, gen in (("s", {"variant": "sinc"}),
                              ("b", {"variant": "bspline", "degree": 1}))]
    out = tmp_path / "cmp"
    assert main(["compare", "--config", cfgs[0], "--config", cfgs[1],
                 "--n-max", "3", "--out", str(out)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0] == "numeric precondition violated: n_max = 3 too large for half_range 4"


def test_failed_compare_leaves_no_directory(tmp_path, capsys):
    cfgs = [write_config(tmp_path / f"{name}.json", {"generator": gen, "grid": "64,4"})
            for name, gen in (("s", {"variant": "sinc"}),
                              ("b", {"variant": "bspline", "degree": 1}))]
    out = tmp_path / "cmp"
    assert main(["compare", "--config", cfgs[0], "--config", cfgs[1],
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["numeric precondition violated: n_max = 4 too large for half_range 4"]
    assert not out.exists()


def test_outputs_leave_no_temp_files(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "generator": {"variant": "psi", "alpha": 1, "beta": 2, "n": 2, "J": 2},
        "analyses": ["periodization", "decay"],
        "parameters": {"windows": [2, 4, 8, 16]},
    })
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "periodization.csv", "report.json", "run_meta.json", "windows_integrability.csv",
        "windows_second_moment_heavy.csv", "windows_second_moment_light.csv"]
    run_meta = json.loads((out / "run_meta.json").read_text())
    assert list(run_meta) == ["wall_clock_s", "total_s"]


def test_failed_construct_keeps_the_earlier_files(tmp_path, capsys, monkeypatch):
    from sispace import cli
    out = tmp_path / "c"
    sinc = write_config(tmp_path / "s.json", {"generator": {"variant": "sinc"}, "grid": "64,4"})
    assert main(["construct", "--config", sinc, "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(before) == ["meta.json", "signal.csv", "spectrum.csv"]

    def disk_full(path, signal):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "write_signal_csv", disk_full)
    hat = write_config(tmp_path / "b.json", {"generator": {"variant": "bspline", "degree": 1},
                                             "grid": "64,4"})
    assert main(["construct", "--config", hat, "--out", str(out)]) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["I/O error: [Errno 28] No space left on device"]
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_failed_analyze_keeps_the_earlier_files(tmp_path, capsys, monkeypatch):
    from sispace import cli
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "c.json", {
        "generator": {"variant": "psi", "alpha": 1, "beta": 2, "n": 2, "J": 2},
        "analyses": ["periodization", "decay"],
        "parameters": {"windows": [2, 4, 8, 16]},
    })
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(before) == 6

    def disk_full(path, verdict):   # after report.json and periodization.csv
        Path(path).write_text("T,partial\n")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "write_windows_csv", disk_full)
    assert main(["analyze", "--config", cfg, "--out", str(out), "--eps", "0.25"]) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["I/O error: [Errno 28] No space left on device"]
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_split_construct_matches_one_worker_and_leaves_no_process(tmp_path, capsys,
                                                                 monkeypatch):
    from sispace import forks, report
    # 2 * 512 * 256 = 2^18 rows: 16 blocks per CSV, split here across 3 workers
    cfg = write_config(tmp_path / "c.json", {"generator": {"variant": "sinc"},
                                             "grid": "512,256"})
    monkeypatch.setattr(forks, "workers", lambda: 1)
    assert main(["construct", "--config", cfg, "--out", str(tmp_path / "one")]) == 0
    monkeypatch.setattr(forks, "workers", lambda: 3)
    split = tmp_path / "split"
    assert main(["construct", "--config", cfg, "--out", str(split)]) == 0
    written = {p.name: p.read_bytes() for p in split.iterdir()}
    assert written == {p.name: p.read_bytes() for p in (tmp_path / "one").iterdir()}
    assert written["spectrum.csv"].count(b"\n") == 2 ** 18 + 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

    # a child that fails fails the run: one line, the earlier files kept, no process left
    def failing_open(path, *args, **kwargs):
        if str(path).endswith(".part"):
            raise OSError(28, "No space left on device")
        return open(path, *args, **kwargs)

    monkeypatch.setattr(report, "open", failing_open, raising=False)
    assert main(["construct", "--config", cfg, "--out", str(split)]) == 4
    assert capsys.readouterr().err.strip().splitlines() == [
        "I/O error: [Errno 28] No space left on device"]
    assert {p.name: p.read_bytes() for p in split.iterdir()} == written
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("where", ["worker", "this process"])
def test_a_failing_probe_range_exits_3_with_one_line(tmp_path, capsys, monkeypatch, where):
    from sispace import forks, generators
    parent = os.getpid()
    evaluate = generators._LatticeEvaluator.__call__

    def failing_evaluate(self, start, stop):
        if (os.getpid() == parent) == (where == "this process"):
            raise FloatingPointError("overflow encountered in multiply")
        return evaluate(self, start, stop)

    monkeypatch.setattr(forks, "workers", lambda: 2)
    monkeypatch.setattr(generators._LatticeEvaluator, "__call__", failing_evaluate)
    cfg = write_config(tmp_path / "c.json", {
        "generator": {"variant": "psi", "alpha": 1, "beta": 2, "n": 2, "J": 2},
        "analyses": ["decay"],
        "parameters": {"windows": [2, 4, 8, 16]},
    })
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err.strip().splitlines() == [
        "numeric precondition violated: overflow encountered in multiply"]
    assert not out.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _signalling_ranges(monkeypatch, where, signum):
    """Make each range task of ``where`` (a forked worker or this process) send
    ``signum`` to its own process once it has run."""
    from sispace import forks
    parent, run_ranges = os.getpid(), forks.run_ranges

    def signalling_run_ranges(task, cuts):
        def task_then_signal(first, last):
            result = task(first, last)
            if (os.getpid() == parent) == (where == "this process"):
                os.kill(os.getpid(), signum)
            return result
        return run_ranges(task_then_signal, cuts)

    monkeypatch.setattr(forks, "run_ranges", signalling_run_ranges)


def _handlers():
    return {signum: signal.getsignal(signum) for signum in cli.TERMINATING}


def _assert_terminated(code, capsys, signum, out, before, handlers):
    assert code == 128 + signum
    assert capsys.readouterr().err.strip().splitlines() == [
        f"terminated by {signal.Signals(signum).name}"]
    # the earlier run's files, and no hidden temp or part file
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _handlers() == handlers   # restored


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGHUP])
@pytest.mark.parametrize("where", ["worker", "this process"])
def test_a_signal_in_the_csv_writer_leaves_no_file_and_no_process(tmp_path, capsys,
                                                                   monkeypatch, where, signum):
    from sispace import forks
    # 2^18 rows per CSV: 16 blocks, split across 3 workers
    cfg = write_config(tmp_path / "c.json", {"generator": {"variant": "sinc"},
                                             "grid": "512,256"})
    monkeypatch.setattr(forks, "workers", lambda: 3)
    out = tmp_path / "out"
    assert main(["construct", "--config", cfg, "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    handlers = _handlers()
    _signalling_ranges(monkeypatch, where, signum)
    code = main(["construct", "--config", cfg, "--out", str(out)])
    _assert_terminated(code, capsys, signum, out, before, handlers)


@pytest.mark.parametrize("where", ["worker", "this process"])
def test_a_signal_in_the_probe_pass_leaves_no_file_and_no_process(tmp_path, capsys,
                                                                 monkeypatch, where):
    from sispace import forks
    monkeypatch.setattr(forks, "workers", lambda: 2)
    cfg = write_config(tmp_path / "c.json", {
        "generator": {"variant": "psi", "alpha": 1, "beta": 2, "n": 2, "J": 2},
        "analyses": ["periodization", "decay"],
        "parameters": {"windows": [2, 4, 8, 16]},
    })
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    handlers = _handlers()
    _signalling_ranges(monkeypatch, where, signal.SIGTERM)   # the probe pass runs first
    code = main(["analyze", "--config", cfg, "--out", str(out), "--eps", "0.25"])
    _assert_terminated(code, capsys, signal.SIGTERM, out, before, handlers)


def test_an_ignored_signal_stays_ignored(tmp_path, monkeypatch):
    # as under nohup: a SIGHUP that this process ignores does not end the run
    cfg = write_config(tmp_path / "c.json", {"generator": {"variant": "sinc"},
                                             "grid": "64,4"})
    _signalling_ranges(monkeypatch, "this process", signal.SIGHUP)
    previous = signal.signal(signal.SIGHUP, signal.SIG_IGN)
    try:
        assert main(["construct", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert signal.getsignal(signal.SIGHUP) == signal.SIG_IGN
    finally:
        signal.signal(signal.SIGHUP, previous)


def test_a_run_off_the_main_thread_installs_no_handler(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", {"generator": {"variant": "sinc"},
                                             "grid": "64,4"})
    handlers, codes = _handlers(), []
    worker = threading.Thread(target=lambda: codes.append(
        main(["analyze", "--config", cfg, "--out", str(tmp_path / "out")])))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive() and codes == [0]
    assert _handlers() == handlers


def test_gates_at_a_zero_time_margin_report_false(tmp_path):
    # psi(1, 2, 2, 3) at p = 5/4, gamma = 1: beta (1/p - 1/2) + alpha (p - 1 - gamma)/p = 0
    cfg = write_config(tmp_path / "c.json", {
        "generator": {"variant": "psi", "alpha": 1, "beta": 2, "n": 2, "J": 3},
        "analyses": ["gates"], "parameters": {"p": 1.25, "gamma": 1}})
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    gates = json.loads((tmp_path / "out" / "report.json").read_text())["analyses"]["gates"]
    assert gates["time_lp_ok"] is False and gates["time_lp_margin"] == 0.0
    assert list(gates)[:6] == ["time_lp_ok", "freq_lq_ok", "joint_ok", "joint_unbounded",
                               "time_lp_margin", "freq_lq_margin"]


def test_analyze_removes_tables_it_did_not_write(tmp_path):
    out = tmp_path / "out"
    psi = write_config(tmp_path / "psi.json", {
        "generator": {"variant": "psi", "alpha": 1, "beta": 2, "n": 2, "J": 2},
        "analyses": ["periodization", "decay"],
        "parameters": {"windows": [2, 4, 8, 16]},
    })
    assert main(["analyze", "--config", psi, "--out", str(out)]) == 0
    assert len(list(out.glob("*.csv"))) == 4
    (out / "notes.csv").write_text("kept\n")
    sinc = write_config(tmp_path / "sinc.json", {"generator": {"variant": "sinc"},
                                                 "analyses": ["invariance"]})
    assert main(["analyze", "--config", sinc, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["notes.csv", "report.json",
                                                     "run_meta.json"]
    assert main(["analyze", "--config", sinc, "--out", str(out),
                 "--analyses", "periodization,decay"]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "notes.csv", "periodization.csv", "report.json", "run_meta.json",
        "windows_integrability.csv"]


def test_non_finite_spectrum_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    from sispace import pipeline
    from sispace.grid import SampledSpectrum

    def build_nan(grid):
        return SampledSpectrum(grid=grid, values=np.full(grid.n_points, np.nan))

    monkeypatch.setattr(pipeline, "build_sinc", build_nan)
    cfg = write_config(tmp_path / "c.json", {"generator": {"variant": "sinc"}, "grid": "64,4"})
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["numeric precondition violated: spectrum values must be finite"]
    assert not out.exists()


@pytest.mark.parametrize("analyses", [["periodization", "invariance"], ["suite"]])
def test_grid_criteria_fold_the_spectrum_once(tmp_path, monkeypatch, analyses):
    from sispace import spectral
    folded = []

    class CountingNumpy:
        """numpy as ``spectral`` sees it, recording the size of each ``abs`` argument."""

        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def abs(x, *args, **kwargs):
            folded.append(np.size(x))
            return np.abs(x, *args, **kwargs)

    monkeypatch.setattr(spectral, "np", CountingNumpy())
    cfg = write_config(tmp_path / "c.json", {
        "generator": {"variant": "psi", "alpha": 1, "beta": 2, "n": 2, "J": 2},
        "analyses": analyses,
        "parameters": {"windows": [2, 4, 8, 16]},
    })
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
    n_points = json.loads((out / "report.json").read_text())["grid"]["n_points"]
    assert folded.count(n_points) == 1


def test_csv_only_analyze_removes_an_earlier_report(tmp_path):
    out = tmp_path / "o"
    hat = write_config(tmp_path / "b.json", {"generator": {"variant": "bspline", "degree": 1},
                                             "analyses": ["invariance"], "grid": "64,4"})
    assert main(["analyze", "--config", hat, "--out", str(out)]) == 0
    assert (out / "report.json").exists()
    (out / "notes.txt").write_text("kept\n")
    sinc = write_config(tmp_path / "s.json", {"generator": {"variant": "sinc"},
                                              "analyses": ["invariance"], "grid": "64,4",
                                              "formats": ["csv"]})
    assert main(["analyze", "--config", sinc, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["notes.txt", "run_meta.json"]


def _leaves(obj, where=""):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, f"{where}.{key}")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, f"{where}[{i}]")
    else:
        yield where, obj


def _signal_im_cells(path):
    return [row.rsplit(",", 1)[1] for row in path.read_text().splitlines()[1:]]


GENERATORS = {
    "sinc": ({"variant": "sinc"}, "64,4"),
    "bspline3": ({"variant": "bspline", "degree": 3}, "64,4"),
    "psi": ({"variant": "psi", "alpha": 1, "beta": 2, "n": 2, "J": 1}, "auto"),
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_construct_writes_a_real_signal_and_analyze_keeps_its_verdicts(tmp_path, monkeypatch,
                                                                       name):
    from sispace import grid
    generator, grid_spec = GENERATORS[name]
    cfg = write_config(tmp_path / "c.json", {"generator": generator, "grid": grid_spec})
    assert main(["construct", "--config", cfg, "--out", str(tmp_path / "c")]) == 0
    assert set(_signal_im_cells(tmp_path / "c" / "signal.csv")) == {"0.0"}
    custom = write_config(tmp_path / "a.json", {
        "generator": {"variant": "custom", "path": str(tmp_path / "c" / "spectrum.csv")},
        "analyses": ["periodization", "invariance", "decay", "pointwise"],
    })
    assert main(["analyze", "--config", custom, "--out", str(tmp_path / "real")]) == 0
    # the same analyses on the complex inverse transform, the route for every spectrum before
    monkeypatch.setattr(grid, "_is_hermitian", lambda u: False)
    assert main(["analyze", "--config", custom, "--out", str(tmp_path / "complex")]) == 0
    real, cplx = (list(_leaves(json.loads((tmp_path / d / "report.json").read_text())))
                  for d in ("real", "complex"))
    assert [where for where, _ in real] == [where for where, _ in cplx]
    for (where, a), (_, b) in zip(real, cplx):
        if isinstance(a, float):
            assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15), where
        else:
            assert a == b, where


def test_reingested_spectrum_keeps_its_label_and_symmetry(tmp_path):
    psi = write_config(tmp_path / "p.json", {
        "generator": {"variant": "psi", "alpha": 1, "beta": 2, "n": 2, "J": 1}, "grid": "64,16"})
    assert main(["construct", "--config", psi, "--out", str(tmp_path / "c")]) == 0
    custom = write_config(tmp_path / "a.json", {
        "generator": {"variant": "custom", "path": str(tmp_path / "c" / "spectrum.csv")}})
    assert main(["construct", "--config", custom, "--out", str(tmp_path / "d")]) == 0
    meta = json.loads((tmp_path / "d" / "meta.json").read_text())
    assert meta["label"] == "psi(a=1 b=2 n=2 J=1)" and meta["hermitian"] is True
    sinc = write_config(tmp_path / "s.json", {"generator": {"variant": "sinc"}})
    assert main(["compare", "--config", custom, "--config", sinc,
                 "--out", str(tmp_path / "cmp")]) == 0
    rows = (tmp_path / "cmp" / "compare.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["psi(a=1 b=2 n=2 J=1)", "sinc"]


def test_compare_quotes_a_sidecar_label_with_a_comma(tmp_path):
    import csv
    sinc = write_config(tmp_path / "s.json", {"generator": {"variant": "sinc"}, "grid": "64,16"})
    assert main(["construct", "--config", sinc, "--out", str(tmp_path / "c")]) == 0
    meta = json.loads((tmp_path / "c" / "meta.json").read_text())
    (tmp_path / "c" / "meta.json").write_text(json.dumps({**meta, "label": 'a,b "c"'}))
    custom = write_config(tmp_path / "a.json", {
        "generator": {"variant": "custom", "path": str(tmp_path / "c" / "spectrum.csv")}})
    assert main(["compare", "--config", custom, "--config", sinc,
                 "--out", str(tmp_path / "cmp")]) == 0
    with open(tmp_path / "cmp" / "compare.csv", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    # every row has the header's fields, none left over
    assert [len(row) for row in rows] == [len(reader.fieldnames)] * 2
    assert [row["generator"] for row in rows] == ['a,b "c"', "sinc"]
    assert rows[0]["m"] == rows[1]["m"]


def test_off_symmetry_custom_spectrum_keeps_its_imaginary_signal(tmp_path):
    sinc = write_config(tmp_path / "s.json", {"generator": {"variant": "sinc"}, "grid": "64,4"})
    assert main(["construct", "--config", sinc, "--out", str(tmp_path / "c")]) == 0
    rows = (tmp_path / "c" / "spectrum.csv").read_text().splitlines()
    # xi = 1/4 moves off its mirror at -1/4
    i = rows.index(next(r for r in rows[1:] if r.split(",")[1] == "0.25"))
    index, xi, _, im = rows[i].split(",")
    rows[i] = ",".join([index, xi, "0.75", im])
    (tmp_path / "c" / "spectrum.csv").write_text("\n".join(rows) + "\n")
    custom = write_config(tmp_path / "a.json", {
        "generator": {"variant": "custom", "path": str(tmp_path / "c" / "spectrum.csv")}})
    assert main(["construct", "--config", custom, "--out", str(tmp_path / "d")]) == 0
    im = np.array(_signal_im_cells(tmp_path / "d" / "signal.csv"), dtype=float)
    assert np.max(np.abs(im)) > 1e-3
    assert json.loads((tmp_path / "d" / "meta.json").read_text())["hermitian"] is False
