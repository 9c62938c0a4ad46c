import json
import math
import subprocess
import sys

import numpy as np
import pytest

from sispace.cli import main
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


def test_console_script_version():
    res = subprocess.run([sys.executable, "-m", "sispace.cli", "--version"],
                         capture_output=True, text=True)
    assert res.returncode == 0
    assert "sispace" in res.stdout


def test_cli_import_leaves_scipy_unloaded():
    # scipy is imported only when window tables are built
    res = subprocess.run([sys.executable, "-c",
                          "import sys, sispace.cli; print('scipy' in sys.modules)"],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_deterministic_dumps_float_format():
    text = dumps_deterministic({"x": 1.0 / 3.0, "n": 5, "flag": True, "none": None})
    assert "0.33333333333333331" in text
    assert json.loads(text) == {"x": 1.0 / 3.0, "n": 5, "flag": True, "none": None}


def test_read_spectrum_round_trips_grid(tmp_path):
    from sispace.generators import build_sinc
    from sispace.grid import make_grid
    from sispace.report import write_spectrum_csv
    g = make_grid(64, 4)
    spec = build_sinc(g)
    write_spectrum_csv(tmp_path / "s.csv", spec)
    back = read_spectrum_csv(tmp_path / "s.csv")
    assert back.grid == g
    assert np.array_equal(np.asarray(back.values, dtype=complex),
                          np.asarray(spec.values, dtype=complex))


def test_write_windows_csv_from_verdict(tmp_path):
    from sispace.generators import PsiParams
    from sispace.localization import divergence_probe
    from sispace.report import write_windows_csv
    v = divergence_probe(PsiParams(1.0, 2.0, 2, 2), 2, 1.75, [2, 4, 8, 16])
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


def test_decay_and_suite_evaluate_the_probe_lattice_once(tmp_path, monkeypatch):
    from sispace import generators, localization
    points = []
    evaluate = generators.evaluate_psi_time

    def counting_evaluate(x, params):
        points.append(np.size(x))
        return evaluate(x, params)

    monkeypatch.setattr(generators, "evaluate_psi_time", counting_evaluate)
    windows = [2, 4, 8, 16]
    cfg = write_config(tmp_path / "c.json", {
        "generator": {"variant": "psi", "alpha": 1, "beta": 2, "n": 2, "J": 2},
        "analyses": ["decay", "suite"],
        "parameters": {"windows": windows},
    })
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    depth = localization.truncation_depth_for_span(1.0, windows[-1])
    probe = generators.PsiTimeEvaluator(generators.PsiParams(1.0, 2.0, 2, depth))
    M = round(windows[-1] / localization._lattice_step(probe))
    seams = len(windows) - 1 + M // localization.PROBE_CHUNK
    assert M + 1 <= sum(points) <= M + 1 + seams


def test_analyze_decay_builds_one_evaluator(tmp_path, monkeypatch):
    from sispace.generators import PsiTimeEvaluator
    built = []
    init = PsiTimeEvaluator.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PsiTimeEvaluator, "__init__", counting_init)
    cfg = write_config(tmp_path / "c.json", {
        "generator": {"variant": "psi", "alpha": 1, "beta": 2, "n": 2, "J": 2},
        "analyses": ["decay"],
        "parameters": {"windows": [2, 4, 8, 16]},
    })
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert len(built) == 1


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


@pytest.mark.parametrize("corrupt", ["one row", "nan", "inf"])
def test_malformed_custom_spectrum_exits_3_with_one_line(tmp_path, capsys, corrupt):
    from sispace.generators import build_sinc
    from sispace.grid import make_grid
    from sispace.report import write_spectrum_csv
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(path, build_sinc(make_grid(32, 2)))
    lines = path.read_text().splitlines()
    if corrupt == "one row":
        lines = lines[:2]
    else:
        index, xi, _, im = lines[5].split(",")
        lines[5] = ",".join((index, xi, corrupt, im))
    path.write_text("\n".join(lines) + "\n")
    cfg = write_config(tmp_path / "c.json", {
        "generator": {"variant": "custom", "path": str(path)},
        "analyses": ["periodization", "invariance"],
    })
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("numeric precondition violated:")
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
