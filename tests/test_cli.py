import json
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
    from sispace import GeneratorSpec, PsiParams, auto_grid, run_witness_suite
    cfg = write_config(tmp_path / "c.json", {
        "generator": {"variant": "psi", "alpha": 1, "beta": 2, "n": 2, "J": 2},
    })
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--analyses", "suite",
                 "--windows", "2,4,8,16", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    spec = GeneratorSpec(kind="psi", psi=PsiParams(1.0, 2.0, 2, 2))
    grid, _ = auto_grid(spec)
    expected = run_witness_suite(spec, grid=grid, windows=[2.0, 4.0, 8.0, 16.0])
    assert report["analyses"]["suite"] == json.loads(dumps_deterministic(expected))
    assert report["analyses"]["suite"]["time_localization"]["probe_truncation"] == 4


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
])
def test_config_errors_exit_2_with_one_line(tmp_path, capsys, extra, message):
    extra = dict(extra)
    argv = extra.pop("argv", [])
    cfg = write_config(tmp_path / "c.json", {
        "generator": {"variant": "psi", "alpha": 1, "beta": 2, "n": 2, "J": 2},
        **extra,
    })
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out), *argv]) == 2
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
