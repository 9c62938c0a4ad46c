"""sispace benchmark: drives the ``sispace`` CLI and prints one JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in ``workloads.py``.  BENCHMARK.json lists
``analytic_decay`` and ``io_roundtrip``; ``grid_criteria`` (N = 2^24 fold and
invariance) and ``compare_mix`` (the worker pool) run the same way by hand.

Run from the root of a source checkout: the program under test is
``src/sispace`` of that checkout (put first on ``PYTHONPATH`` of each child),
and scratch files go to ``.bench_work/`` there.  The load generator is one
single-threaded closed loop: it spawns one child process per CLI operation,
waits for it to exit, checks its outputs against the references under
``perfbench/refs``, and only then starts the next one.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:

* ``wall_s``      median wall time of one unit of work over the run's
                  units whose outputs passed the check (spawn to exit;
                  includes import and output writing);
* ``peak_rss_mb`` largest ``ru_maxrss`` of the run's operation children;
* ``setup_s``     median wall time of ``python -m sispace.cli --version``
                  (interpreter + numpy/scipy/sispace import) over at least
                  ``SETUP_REPEATS`` children, spread evenly over the run so
                  the median does not hang on a few seconds of machine load.

With ``--trace 1`` it carries the per-layer metrics of a traced run
(``trace_child.py``), per unit of work.  Each traced unit directly follows
an untraced run of the same unit, which gives the trace overhead (median
of the paired differences) and the untraced process CPU time.  Lines before the last one
are human-readable: machine facts, ``ops_failed_ratio`` and per-variant
details.  An operation fails on a nonzero exit or an output mismatch; the
run is ``correct`` only when none failed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import check
import machine
import workloads

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
OP_TIMEOUT_S = 150.0

# per-layer metric -> unit; "computed" ones are derived from sizes, not timed
PER_LAYER_UNITS = {
    "generators.window_tables.s": "s",
    "generators.window_tables.builds": "count",
    "generators.evaluate_psi_time.self_s": "s",
    "generators.evaluate_psi_time.points": "count",
    "generators.evaluate_psi_time.useful_ratio": "1",
    "generators.WindowTables.interp_s": "s",
    "generators.dirichlet_ratio.s": "s",
    "localization.divergence_probe.self_s": "s",
    "localization.divergence_probe.calls": "count",
    "generators.build_psi_spectrum.s": "s",
    "generators.build.points": "count",
    "spectral.periodization.s": "s",
    "spectral.translation_invariance_defect.s": "s",
    "spectral.translation_invariance_defect.calls": "count",
    "spectral.n_invariance_report.s": "s",
    "spectral.n_invariance_report.calls": "count",
    "spectral.n_invariance_report.useful_ratio": "1",
    "spectral.detect_invariance_group.self_s": "s",
    "grid.to_time_domain.s": "s",
    "grid.to_time_domain.points": "count",
    "report.write.s": "s",
    "report.bytes_written": "bytes",
    "report.read_spectrum_csv.s": "s",
    "report.bytes_read": "bytes",
    "cli.main.s": "s",
    "cli.cmd_compare.worker_busy_s": "s",
    "cli.process.cpu_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "1",
    "computed.localization.lattice_points_per_probe": "count",
    "computed.grid.fft_flops": "flop",
    "computed.spectral.fold_bytes": "bytes",
}
END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class Child:
    """Result of one child process: wall time, exit code and rusage."""

    def __init__(self, wall, code, rusage):
        self.wall = wall
        self.code = code
        self.rss_mb = rusage.ru_maxrss / 1024.0
        self.cpu_s = rusage.ru_utime + rusage.ru_stime


def spawn(argv, cwd, env, timeout=OP_TIMEOUT_S):
    """Run ``argv`` to completion; killed after ``timeout`` seconds."""
    with open(cwd / "stderr.txt", "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        lock = threading.Lock()
        reaped = []

        def kill():
            with lock:
                if not reaped:
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, rusage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            with lock:
                reaped.append(True)
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, proc.returncode, rusage)


class Bench:
    def __init__(self, root, args):
        self.root = root
        self.args = args
        self.work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
        self.refs = HERE / "refs" / args.scale / args.workload
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.rng = random.Random(args.seed)
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.unit_seq = 0
        self.setup_walls = []
        self.next_setup = None

    def cli(self, *argv):
        return [sys.executable, "-m", "sispace.cli", *argv]

    def traced(self, trace_out, *argv):
        return [sys.executable, str(HERE / "trace_child.py"), str(self.root / "src"),
                str(trace_out), "--", *argv]

    def setup_sample(self, interval):
        """Time one ``--version`` child if ``interval`` seconds have passed
        since the last one (the first call also warms the bytecode caches)."""
        now = time.perf_counter()
        if self.next_setup is not None and now < self.next_setup:
            return
        d = self.work / "setup"
        if self.next_setup is None:
            d.mkdir(parents=True, exist_ok=True)
            spawn(self.cli("--version"), d, self.env)
        self.setup_walls.append(spawn(self.cli("--version"), d, self.env).wall)
        self.next_setup = now + interval

    def run_unit(self, workload, variant, traced):
        """All ops of one variant in a fresh directory; (children, traces, ok)."""
        self.unit_seq += 1
        d = self.work / f"u{self.unit_seq}"
        d.mkdir(parents=True)
        env = {**self.env, **workload.env}
        ref = json.loads((self.refs / f"{variant.key}.json").read_text())
        children, traces, ok = [], [], True
        for i, op in enumerate(variant.ops):
            for name, cfg in op.configs.items():
                (d / name).write_text(json.dumps(cfg))
            trace_out = d / f"trace{i}.json"
            argv = self.traced(trace_out, *op.argv) if traced else self.cli(*op.argv)
            child = spawn(argv, d, env)
            self.attempted += 1
            problems = []
            if child.code != 0:
                err = (d / "stderr.txt").read_text().strip().splitlines()[-1:]
                problems.append(f"exit code {child.code}: {' '.join(err)}")
            else:
                for (kind, path), expected in zip(op.checks, ref["ops"][i]["outputs"]):
                    problems += check.check_output(kind, d / path, expected,
                                                   variant.config_order or None)
                if traced:
                    traces.append(json.loads(trace_out.read_text()))
            if problems:
                self.failed += 1
                ok = False
                self.failures.append(f"{variant.key} {op.argv[0]}: " + "; ".join(problems[:3]))
            children.append(child)
        shutil.rmtree(d)
        return children, traces, ok

    def run_round(self, paired, setup_interval=None):
        """Every variant once, in seed order.  ``paired`` follows each
        untraced unit with a traced run of the same unit; with a
        ``setup_interval`` set-up is sampled between units."""
        workload = workloads.make(self.args.workload, self.args.scale, self.rng)
        out = {"units": [], "children": [], "traced_units": [], "traces": []}
        for variant in workload.variants:
            if setup_interval is not None:
                self.setup_sample(setup_interval)
            children, _, ok = self.run_unit(workload, variant, traced=False)
            out["units"].append((variant.key, sum(c.wall for c in children), ok))
            out["children"] += children
            if paired:
                children, traces, ok = self.run_unit(workload, variant, traced=True)
                out["traced_units"].append((variant.key, sum(c.wall for c in children), ok))
                out["traces"] += traces
        return out

    def rounds(self, paired, seconds, setup_interval=None):
        """At least one round; another only while it is expected (from the
        mean round so far) to end within ``seconds``."""
        done = []
        t0 = time.perf_counter()
        while True:
            done.append(self.run_round(paired, setup_interval))
            elapsed = time.perf_counter() - t0
            if elapsed * (len(done) + 1) / len(done) > seconds:
                return done


def end_to_end(bench, seconds):
    rounds = bench.rounds(False, seconds, setup_interval=seconds / SETUP_REPEATS)
    while len(bench.setup_walls) < SETUP_REPEATS:
        bench.setup_sample(0.0)
    units = [u for r in rounds for u in r["units"]]
    walls = [wall for _, wall, ok in units if ok] or [wall for _, wall, _ in units]
    children = [c for r in rounds for c in r["children"]]
    for r in rounds:
        print("round", " ".join(f"{k}={w:.3f}s" for k, w, _ in r["units"]))
    print("setup", " ".join(f"{w:.3f}s" for w in bench.setup_walls))
    return {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": max(c.rss_mb for c in children),
        "setup_s": statistics.median(bench.setup_walls),
    }


def per_layer(bench, seconds):
    rounds = bench.rounds(True, seconds)
    traces = [t for r in rounds for t in r["traces"]]
    units = sum(len(r["traced_units"]) for r in rounds)
    overheads = [t[1] - u[1] for r in rounds
                 for u, t in zip(r["units"], r["traced_units"])]
    spans, counts = {}, {}
    main_s = covered = busy = 0.0
    for t in traces:
        for name, agg in t["spans"].items():
            acc = spans.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            for key in acc:
                acc[key] += agg[key]
        for name, value in t["counts"].items():
            counts[name] = counts.get(name, 0) + value
        main_s += t["main_s"]
        covered += t["layer_covered_s"]
        busy += t["worker_busy_s"]
        print("trace", t["exit_code"], f"main={t['main_s']:.3f}s",
              f"coverage={t['layer_covered_s'] / t['main_s']:.4f}")

    def span(name, key):
        return spans.get(name, {}).get(key, 0) / units

    def count(name):
        return counts.get(name, 0) / units

    def ratio(num, den):
        return num / den if den else 0.0

    probe_calls = spans.get("localization.divergence_probe", {}).get("calls", 0)
    inv_calls = spans.get("spectral.n_invariance_report", {}).get("calls", 0)
    return {
        "generators.window_tables.s": span("generators.window_tables", "s"),
        "generators.window_tables.builds": count("generators.window_tables.builds"),
        "generators.evaluate_psi_time.self_s": span("generators.evaluate_psi_time", "self_s"),
        "generators.evaluate_psi_time.points": count("generators.evaluate_psi_time.points"),
        "generators.evaluate_psi_time.useful_ratio": ratio(
            counts.get("generators.evaluate_psi_time.distinct_points", 0),
            counts.get("generators.evaluate_psi_time.points", 0)),
        "generators.WindowTables.interp_s": span("generators.WindowTables.g0_inv", "s")
        + span("generators.WindowTables.g1_inv", "s"),
        "generators.dirichlet_ratio.s": span("generators.dirichlet_ratio", "s"),
        "localization.divergence_probe.self_s": span("localization.divergence_probe", "self_s"),
        "localization.divergence_probe.calls": probe_calls / units,
        "generators.build_psi_spectrum.s": span("generators.build_psi_spectrum", "s"),
        "generators.build.points": count("generators.build.points"),
        "spectral.periodization.s": span("spectral.periodization", "s"),
        "spectral.translation_invariance_defect.s": span("spectral.translation_invariance_defect", "s"),
        "spectral.translation_invariance_defect.calls": span("spectral.translation_invariance_defect", "calls"),
        "spectral.n_invariance_report.s": span("spectral.n_invariance_report", "s"),
        "spectral.n_invariance_report.calls": inv_calls / units,
        "spectral.n_invariance_report.useful_ratio": ratio(
            counts.get("spectral.n_invariance_report.distinct_n", 0), inv_calls),
        "spectral.detect_invariance_group.self_s": span("spectral.detect_invariance_group", "self_s"),
        "grid.to_time_domain.s": span("grid.to_time_domain", "s"),
        "grid.to_time_domain.points": count("grid.to_time_domain.points"),
        "report.write.s": count("report.write.s"),
        "report.bytes_written": count("report.bytes_written"),
        "report.read_spectrum_csv.s": span("report.read_spectrum_csv", "s"),
        "report.bytes_read": count("report.bytes_read"),
        "cli.main.s": main_s / units,
        "cli.cmd_compare.worker_busy_s": busy / units,
        "cli.process.cpu_s": sum(c.cpu_s for r in rounds for c in r["children"]) / units,
        "trace.overhead_s": statistics.median(overheads),
        "trace.coverage": ratio(covered, main_s),
        "computed.localization.lattice_points_per_probe": ratio(
            counts.get("computed.localization.lattice_points", 0), probe_calls),
        "computed.grid.fft_flops": count("computed.grid.fft_flops"),
        "computed.spectral.fold_bytes": count("computed.spectral.fold_bytes"),
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny: small inputs for the smoke test")
    return p.parse_args(argv)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)   # unwinds through spawn, which kills the child


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    root = Path.cwd()
    if not (root / "src" / "sispace" / "cli.py").is_file():
        print(f"no sispace sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    bench = Bench(root, args)
    bench.work.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.make(args.workload, args.scale, random.Random(0))
        print("machine", json.dumps(machine.facts(root, workload, bench.env)))
        if args.trace:
            metrics, units = per_layer(bench, args.seconds), PER_LAYER_UNITS
        else:
            metrics, units = end_to_end(bench, args.seconds), END_TO_END_UNITS
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    for line in bench.failures:
        print("FAILED", line)
    print(f"ops_failed_ratio {bench.failed / bench.attempted:.6g} (1)"
          f"  [{bench.failed} of {bench.attempted}]")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} ({units[name]})")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
