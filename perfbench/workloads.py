"""Workload definitions: the CLI operations each workload runs.

A workload is a list of *variants*.  One *round* runs every variant once,
in an order drawn from the seed, so every run does the same mix of work
whatever its seed; the seed only changes the order (and, for
``compare_mix``, the order of the configs inside the compare call).  A
variant is one *unit* of work: one CLI call, or for ``io_roundtrip`` a
``construct`` followed by an ``analyze`` of its output.

Each operation's config is written as JSON into the unit's own working
directory and the CLI runs with that directory as its cwd, so every path the
reports echo is relative and the outputs are identical across checkouts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

PSI_N_CHOICES = (2, 3)


@dataclass(frozen=True)
class Op:
    """One CLI call: ``sispace <argv>`` with ``configs`` written beforehand."""

    argv: tuple
    configs: dict            # file name -> config object
    checks: tuple            # (kind, output path) pairs checked against the reference


@dataclass(frozen=True)
class Variant:
    key: str                 # reference file name
    ops: tuple
    config_order: tuple = ()  # compare_mix: labels in the order given to compare


@dataclass(frozen=True)
class Workload:
    variants: tuple
    env: dict = field(default_factory=dict)
    largest_array_bytes: int = 0
    largest_array_note: str = ""


def _psi(alpha, beta, n, J):
    return {"variant": "psi", "alpha": alpha, "beta": beta, "n": n, "J": J}


def _analyze(config):
    return Op(argv=("analyze", "--config", "config.json", "--out", "out"),
              configs={"config.json": config},
              checks=(("report", "out/report.json"),))


def analytic_decay(scale):
    J, windows = (4, [2, 4, 8, 16, 32]) if scale == "full" else (2, [1, 2, 4, 8])
    variants = tuple(
        Variant(key=f"n{n}", ops=(_analyze({
            "generator": _psi(1.0, 2.0, n, J), "grid": "auto",
            "analyses": ["decay"], "parameters": {"windows": windows}}),))
        for n in PSI_N_CHOICES)
    return Workload(
        variants=variants,
        # n = 3 auto grid: 2^22 float64 spectrum; each probe lattice is 2^21+1
        largest_array_bytes=(1 << 22) * 8,
        largest_array_note="2^22-point float64 spectrum (n = 3 auto grid)")


def grid_criteria(scale):
    J = 5 if scale == "full" else 2
    variants = tuple(
        Variant(key=f"n{n}", ops=(_analyze({
            "generator": _psi(1.0, 2.0, n, J), "grid": "auto",
            "analyses": ["periodization", "invariance", "pointwise", "gates"]}),))
        for n in PSI_N_CHOICES)
    return Workload(
        variants=variants,
        largest_array_bytes=(1 << 24) * 8,
        largest_array_note="2^24-point float64 spectrum and its folded square")


def io_roundtrip(scale):
    J, grid = (3, "512,256") if scale == "full" else (2, "64,64")
    variants = []
    for n in PSI_N_CHOICES:
        construct = Op(argv=("construct", "--config", "construct.json", "--out", "c"),
                       configs={"construct.json": {"generator": _psi(1.0, 2.0, n, J),
                                                   "grid": grid}},
                       checks=(("meta", "c/meta.json"),
                               ("csv", "c/spectrum.csv"),
                               ("csv", "c/signal.csv")))
        analyze = _analyze({"generator": {"variant": "custom", "path": "c/spectrum.csv"},
                            "analyses": ["periodization", "invariance", "decay",
                                         "pointwise"]})
        variants.append(Variant(key=f"n{n}", ops=(construct, analyze)))
    return Workload(
        variants=tuple(variants),
        largest_array_bytes=(1 << 18) * 16,
        largest_array_note="2^18-point complex128 spectrum/signal")


COMPARE_FULL = (
    ("sinc", {"variant": "sinc"}),
    ("bspline3", {"variant": "bspline", "degree": 3}),
    ("psi(a=1 b=1 n=3 J=4)", _psi(1.0, 1.0, 3, 4)),
    ("psi(a=2 b=1 n=2 J=3)", _psi(2.0, 1.0, 2, 3)),
)
COMPARE_TINY = (COMPARE_FULL[0], COMPARE_FULL[1], COMPARE_FULL[3])


def compare_mix(scale, order=None):
    """``order`` permutes the configs (drawn from the seed); default as listed."""
    configs = COMPARE_FULL if scale == "full" else COMPARE_TINY
    chosen = [configs[i] for i in order] if order is not None else list(configs)
    names = [f"g{i}.json" for i in range(len(chosen))]
    argv = ["compare"]
    for name in names:
        argv += ["--config", name]
    argv += ["--out", "out"]
    op = Op(argv=tuple(argv),
            configs={name: {"generator": gen} for name, (_, gen) in zip(names, chosen)},
            checks=(("compare", "out/compare.csv"),))
    variant = Variant(key="all", ops=(op,),
                      config_order=tuple(label for label, _ in chosen))
    return Workload(
        variants=(variant,),
        env={"SISPACE_THREADS": "2"},
        # psi(a=1 b=1 n=3) probe lattice is evaluated in 2^19-point complex chunks
        largest_array_bytes=(1 << 19) * 16,
        largest_array_note="2^19-point complex128 lattice chunk")


NAMES = ("analytic_decay", "grid_criteria", "io_roundtrip", "compare_mix")


def make(name, scale, rng):
    """The workload's variants for one round, in the order drawn from ``rng``."""
    if name == "compare_mix":
        order = list(range(len(COMPARE_FULL if scale == "full" else COMPARE_TINY)))
        rng.shuffle(order)
        return compare_mix(scale, order)
    workload = {"analytic_decay": analytic_decay, "grid_criteria": grid_criteria,
                "io_roundtrip": io_roundtrip}[name](scale)
    variants = list(workload.variants)
    rng.shuffle(variants)
    return replace(workload, variants=tuple(variants))
