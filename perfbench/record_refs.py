"""Record the reference outputs that ``run.py`` checks every operation against.

    python3 perfbench/record_refs.py [--scale full|tiny ...] [--workload NAME ...]

Run from a checkout root whose ``src/sispace`` is the code to take as
correct.  Writes ``perfbench/refs/<scale>/<workload>/<variant>.json``.
References are only re-recorded deliberately, when a change is meant to
alter the outputs; a speed-up must reproduce the existing ones.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import sys
from pathlib import Path

import check
import machine
import run
import workloads


def canonical(name, scale):
    if name == "compare_mix":
        return workloads.compare_mix(scale)
    return workloads.make(name, scale, random.Random(0))


def record(root, scale, name):
    workload = canonical(name, scale)
    bench = run.Bench(root, run.parse_args(["--workload", name, "--seed", "0",
                                            "--seconds", "0"]))
    env = {**bench.env, **workload.env}
    out_dir = run.HERE / "refs" / scale / name
    out_dir.mkdir(parents=True, exist_ok=True)
    for variant in workload.variants:
        d = bench.work / variant.key
        d.mkdir(parents=True)
        ops = []
        for op in variant.ops:
            for file_name, cfg in op.configs.items():
                (d / file_name).write_text(json.dumps(cfg))
            child = run.spawn(bench.cli(*op.argv), d, env)
            if child.code != 0:
                raise SystemExit(f"{name}/{variant.key}: {op.argv[0]} exited {child.code}:\n"
                                 + (d / "stderr.txt").read_text())
            outputs = []
            for kind, path in op.checks:
                fields = check.extract(kind, d / path)
                fields.pop("order", None)   # compare order is checked per run
                outputs.append(fields)
            ops.append({"argv": list(op.argv), "outputs": outputs})
            print(f"{scale} {name} {variant.key} {op.argv[0]}: {child.wall:.2f} s",
                  flush=True)
        ref = {"workload": name, "scale": scale, "variant": variant.key,
               "source_rev": machine.git_rev(root), "ops": ops}
        (out_dir / f"{variant.key}.json").write_text(json.dumps(ref, indent=1) + "\n")
        shutil.rmtree(d)
    shutil.rmtree(bench.work, ignore_errors=True)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--scale", action="append", choices=("full", "tiny"))
    p.add_argument("--workload", action="append", choices=workloads.NAMES)
    args = p.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "sispace").is_dir():
        print("run from a checkout root", file=sys.stderr)
        return 2
    for scale in args.scale or ("tiny", "full"):
        for name in args.workload or workloads.NAMES:
            record(root, scale, name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
