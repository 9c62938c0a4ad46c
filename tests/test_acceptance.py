"""Acceptance suite: one check per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Budgets are wall-clock upper bounds from the criteria.
"""

import json
import time

import numpy as np
import pytest

from sispace import (FrequencyGrid, GeneratorSpec, PsiParams, auto_grid,
                     build_bspline, build_psi_spectrum, build_sinc,
                     evaluate_psi_time, l2_norm, to_time_domain)
from sispace.bumps import partition_defect, smooth_step
from sispace.cli import main as cli_main
from sispace.localization import (FeasibilityGate, divergence_probes,
                                  feasibility_gates,
                                  pointwise_freq_decay, psi_block_freq_contributions,
                                  truncation_depth_for_span)
from sispace.spectral import gram_coefficients, grid_criteria, orthonormality_defect


def report_line(num, name, budget, t0, ok, detail=""):
    dt = time.perf_counter() - t0
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {name}: {status} ({dt:.1f}s / budget {budget:.0f}s) {detail}")
    assert ok, f"criterion {num}: {name} {detail}"
    assert dt < budget, f"criterion {num} exceeded budget: {dt:.1f}s > {budget}s"


@pytest.fixture(scope="module")
def psi5():
    params = PsiParams(1.0, 2.0, 2, 5)
    grid, _ = auto_grid(GeneratorSpec(kind="psi", psi=params))
    return params, grid, build_psi_spectrum(params, grid)


def test_c01_quadratic_partition():
    t0 = time.perf_counter()
    x = np.linspace(0.0, 1.0, 10_000)
    defect = float(np.max(np.abs(smooth_step(x) ** 2 + smooth_step(1 - x) ** 2 - 1)))
    report_line(1, "quadratic partition identity", 1.0, t0,
                defect < 1e-12, f"defect={defect:.2e}")


def test_c02_partition_of_unity():
    t0 = time.perf_counter()
    worst = max(partition_defect(alpha, 5, 2.0 ** (-5 * alpha) / 2)
                for alpha in (0.5, 1.0, 2.0))
    report_line(2, "block partition of unity", 10.0, t0,
                worst < 1e-10, f"max defect={worst:.2e}")


def test_c03_orthonormality(psi5):
    t0 = time.perf_counter()
    _, _, spec = psi5
    prof = grid_criteria(spec, 1).profile
    defect = orthonormality_defect(prof)
    ks, coeffs = gram_coefficients(prof, 8)
    gram_dev = float(np.max(np.abs(coeffs - (ks == 0))))
    report_line(3, "orthonormal banded generator", 60.0, t0,
                defect < 1e-3 and gram_dev < 2e-3,
                f"defect={defect:.2e} gram_dev={gram_dev:.2e}")


def test_c04_invariance_criteria(psi5):
    t0 = time.perf_counter()
    _, _, spec = psi5
    rep, = grid_criteria(spec, 2).per_n
    psi_ok = rep.passed and rep.violation_fraction == 0.0

    _, b1 = build_bspline(1, FrequencyGrid(64, 1024))
    b_fails = all(not rep.passed for rep in grid_criteria(b1, 4).per_n)

    sinc = build_sinc(FrequencyGrid(1024, 16))
    defect, _ = grid_criteria(sinc, 1).translation
    report_line(4, "refined-invariance criteria", 60.0, t0,
                psi_ok and b_fails and defect < 1e-14,
                f"psi_pass={psi_ok} bspline_fails={b_fails} sinc_defect={defect:.1e}")


def test_c05_periodization_oracle():
    t0 = time.perf_counter()
    _, spec = build_bspline(1, FrequencyGrid(64, 1024))
    prof = grid_criteria(spec, 1).profile
    ks = np.arange(-10_000, 10_001)
    oracle = np.array([np.sum(np.sinc(r + ks) ** 4) for r in prof.residues])
    oracle += 2.0 / (3.0 * np.pi ** 4 * 10_000 ** 3)
    err = float(np.max(np.abs(prof.values - oracle)))
    report_line(5, "periodization vs direct-summation oracle", 30.0, t0,
                err < 1e-10, f"max err={err:.2e}")


def test_c06_bandlimited_tail_witness():
    t0 = time.perf_counter()
    sig = to_time_domain(build_sinc(FrequencyGrid(1024, 16)))
    verdict, = divergence_probes(sig, [(1, 0.0)], [8, 16, 32, 64, 128])
    target = 4 / np.pi ** 2 * np.log(2)
    inc_ok = all(abs(i - target) / target < 0.15 for i in verdict.tail_increments)
    # independent oracle: fine quadrature of the exact integrand
    xs = np.linspace(8, 16, 32_001)
    oracle = 2 * np.trapezoid(np.abs(np.sinc(xs)), xs)
    oracle_ok = abs(oracle - target) / target < 0.15
    report_line(6, "non-integrability trend of sinc", 30.0, t0,
                verdict.verdict == "diverging" and inc_ok and oracle_ok,
                f"verdict={verdict.verdict} increments~{verdict.tail_increments[0]:.3f} "
                f"target={target:.3f}")


def test_c07_second_moment_pair():
    t0 = time.perf_counter()
    windows = [4, 8, 16, 32, 64]
    depth = truncation_depth_for_span(1.0, max(windows))
    params = PsiParams(1.0, 2.0, 2, depth)
    heavy, light = divergence_probes(params, [(2, 1.5), (2, 0.5)], windows)
    report_line(7, "second-moment divergence/convergence pair", 120.0, t0,
                heavy.verdict == "diverging" and light.verdict == "converging",
                f"w=1.5:{heavy.verdict} w=0.5:{light.verdict} (depth {depth})")


def test_c08_pointwise_decay_profile():
    t0 = time.perf_counter()
    half_peaks = {J: pointwise_freq_decay(PsiParams(1.0, 2.0, 2, J), 0.5).per_block_peaks[-1][1]
                  for J in (4, 5, 6)}
    spread = (max(half_peaks.values()) - min(half_peaks.values())) / half_peaks[4]
    grow = [pointwise_freq_decay(PsiParams(1.0, 2.0, 2, J), 0.6).per_block_peaks[-1][1]
            for J in (4, 5, 6)]
    increasing = grow[0] < grow[1] < grow[2]
    report_line(8, "scaled-sup bounded at 1/2, growing above", 120.0, t0,
                spread < 0.25 and increasing,
                f"spread@0.5={spread:.3f} peaks@0.6={[round(v, 3) for v in grow]}")


def test_c09_gate_numeric_consistency():
    t0 = time.perf_counter()
    ok_gate = feasibility_gates(FeasibilityGate(alpha=3, beta=1, delta=0.2, q=1))
    _, blocks = psi_block_freq_contributions(PsiParams(3.0, 1.0, 2, 5), 1.0, 0.2)
    vals = [c for _, c in blocks]
    decays = all(vals[j] < vals[j - 1] / 1.5 for j in range(2, len(vals)))

    bad_gate = feasibility_gates(FeasibilityGate(alpha=1, beta=2, delta=0.2, q=1))
    _, blocks2 = psi_block_freq_contributions(PsiParams(1.0, 2.0, 2, 5), 1.0, 0.2)
    vals2 = [c for _, c in blocks2]
    grows = all(vals2[j] > vals2[j - 1] for j in range(2, len(vals2)))
    report_line(9, "exponent gates match block numerics", 60.0, t0,
                ok_gate.freq_lq_ok and decays and (not bad_gate.freq_lq_ok) and grows,
                f"decaying_ratios={vals[2] / vals[1]:.3f} growing_ratios={vals2[2] / vals2[1]:.3f}")


def test_c10_route_cross_check_and_parseval():
    t0 = time.perf_counter()
    params = PsiParams(1.0, 2.0, 2, 4)
    grid, _ = auto_grid(GeneratorSpec(kind="psi", psi=params))
    spec = build_psi_spectrum(params, grid)
    sig = to_time_domain(spec)
    rng = np.random.default_rng(1234)
    m = rng.integers(-8 * 2 * grid.half_range, 8 * 2 * grid.half_range, 100)
    ana = evaluate_psi_time(m / (2 * grid.half_range), params)
    route_err = float(np.max(np.abs(ana - sig.values[m + grid.n_points // 2])))

    parseval_worst = 0.0
    builtins = [build_sinc(FrequencyGrid(1024, 16)),
                build_bspline(1, FrequencyGrid(64, 1024))[1],
                build_bspline(3, FrequencyGrid(64, 1024))[1],
                spec]
    p5 = PsiParams(1.0, 2.0, 2, 5)
    g5, _ = auto_grid(GeneratorSpec(kind="psi", psi=p5))
    builtins.append(build_psi_spectrum(p5, g5))
    for f in builtins:
        a = l2_norm(f)
        b = l2_norm(to_time_domain(f))
        parseval_worst = max(parseval_worst, abs(a - b) / a)
    report_line(10, "route cross-check and two-route energy identity", 60.0, t0,
                route_err < 1e-6 and parseval_worst < 1e-6,
                f"route_err={route_err:.2e} parseval_rel={parseval_worst:.2e}")


def test_c11_deterministic_reports(tmp_path):
    t0 = time.perf_counter()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "generator": {"variant": "psi", "alpha": 1, "beta": 2, "n": 2, "J": 2},
        "analyses": ["periodization", "invariance", "gates"],
    }))
    assert cli_main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "r1")]) == 0
    assert cli_main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "r2")]) == 0
    b1 = (tmp_path / "r1" / "report.json").read_bytes()
    b2 = (tmp_path / "r2" / "report.json").read_bytes()
    report_line(11, "byte-identical repeated reports", 60.0, t0,
                b1 == b2, f"bytes={len(b1)}")
