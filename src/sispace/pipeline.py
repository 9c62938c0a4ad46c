"""One build path and one analysis pipeline for ``analyze``, ``suite`` and ``compare``.

:func:`build` is the only builder dispatch.  A :class:`RunContext` computes
each intermediate of one generator on one grid lazily and at most once;
``SECTIONS`` maps each analysis name to a function ``ctx -> dict``, and
:func:`run_witness_suite` and :func:`compare_row` project the same context.
"""

from __future__ import annotations

import json
from dataclasses import asdict, replace
from functools import cached_property
from pathlib import Path

from .generators import (GeneratorSpec, PsiTimeEvaluator, auto_grid,
                         build_bspline, build_psi_spectrum, build_sinc)
from .grid import FrequencyGrid, make_grid, to_time_domain
from .localization import (DEFAULT_WINDOWS, FeasibilityGate, divergence_probe,
                           divergence_probes, feasibility_gates, pointwise_freq_decay,
                           psi_block_freq_contributions,
                           spectrum_envelope_exponent,
                           truncation_depth_for_span)
from .report import read_spectrum_csv
from .spectral import (MAGNITUDE_THRESHOLD, RIESZ_THRESHOLD, InvarianceGroup,
                       gram_coefficients, n_invariance_report,
                       orthonormality_defect, periodization,
                       translation_invariance_defect)

DEFAULT_PARAMETERS = {"eps": 0.5, "gamma": 0.0, "delta": 0.2, "p": 1.0, "q": 1.0,
                      "n_max": 8, "K": 8, "s": 0.5, "windows": list(DEFAULT_WINDOWS)}


class ConfigError(Exception):
    pass


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"bad JSON in {path}: {e}") from e


def resolve_grid(spec: GeneratorSpec, grid):
    """``(grid, sizing)`` from a grid or from "auto", "S,Xi", {"S", "Xi"} or [S, Xi].

    A custom spectrum on "auto" brings its own grid: ``(None, from-file)``.
    """
    if isinstance(grid, FrequencyGrid):
        return grid, {}
    if grid == "auto":
        return (None, {"rule": "from-file"}) if spec.kind == "custom" else auto_grid(spec)
    try:
        fields = (grid.split(",") if isinstance(grid, str)
                  else (grid["S"], grid["Xi"]) if isinstance(grid, dict) else grid)
        S, Xi = (int(v) for v in fields)
    except (KeyError, IndexError, TypeError, ValueError) as e:
        raise ConfigError(f"bad grid {grid!r}; expected S,Xi or auto") from e
    return make_grid(S, Xi), {"rule": "explicit"}


def build(spec: GeneratorSpec, grid="auto"):
    """``(grid, spectrum, signal, sizing)``; ``signal`` is None unless the
    builder samples it exactly (B-splines).  A custom spectrum is read from
    its CSV with the ``meta.json`` sidecar next to it, when present."""
    grid, sizing = resolve_grid(spec, grid)
    signal = None
    if spec.kind == "custom":
        meta_path = Path(spec.path).with_name("meta.json")
        meta = load_json(meta_path) if meta_path.exists() else {}
        try:
            spectrum = read_spectrum_csv(spec.path, grid=grid,
                                         meta=meta.get("spectrum_meta", meta))
        except OSError as e:
            raise ConfigError(f"cannot read custom spectrum: {e}") from e
        grid = spectrum.grid
    elif spec.kind == "sinc":
        spectrum = build_sinc(grid)
    elif spec.kind == "bspline":
        signal, spectrum = build_bspline(spec.degree, grid)
    else:
        spectrum = build_psi_spectrum(spec.psi, grid)
    return grid, spectrum, signal, sizing


class RunContext:
    """One generator on one grid with typed analysis parameters.

    Each intermediate is built on first use and kept: a psi run whose
    analyses never read the spectrum never builds it, and the decay probes
    share one pass over the probe lattice.
    """

    def __init__(self, spec: GeneratorSpec, grid, parameters):
        self.spec, self.params = spec, parameters
        self.psi = spec.psi if spec.kind == "psi" else None
        self._memo = {}
        self.grid, self.sizing = resolve_grid(spec, grid)
        if self.grid is None:
            self.grid = self.spectrum.grid
        self.n_cap = int(min(parameters["n_max"], self.grid.half_range // 2))

    def _once(self, key, make):
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    @cached_property
    def _built(self):
        return build(self.spec, self.grid or "auto")

    @property
    def spectrum(self):
        return self._built[1]

    @cached_property
    def signal(self):
        return self._built[2] if self._built[2] is not None else to_time_domain(self.spectrum)

    @cached_property
    def profile(self):
        return periodization(self.spectrum)

    @cached_property
    def translation(self):
        return translation_invariance_defect(self.spectrum)

    def invariance(self, n):
        return self._once(("n", n), lambda: n_invariance_report(self.spectrum, n))

    @cached_property
    def group(self):
        passing = (n for n in range(2, self.n_cap + 1) if self.invariance(n).passed)
        return InvarianceGroup.classify(self.translation[0], passing)

    @cached_property
    def windows(self):
        """As given on the analytic route; on the grid route those inside the
        sampled span, or four spread over it."""
        if self.psi:
            return list(self.params["windows"])
        span = self.signal.half_span
        windows = [float(T) for T in self.params["windows"] if T <= span]
        return windows if len(windows) >= 4 else [span / 8, span / 4, span / 2, span]

    @cached_property
    def time_source(self):
        """The probes' source: the sampled signal, or for psi one analytic
        evaluator truncated deep enough for its envelope to cover the windows."""
        if not self.psi:
            return self.signal
        depth = truncation_depth_for_span(self.psi.alpha, max(self.windows))
        return PsiTimeEvaluator(replace(self.psi, J=max(self.psi.J, depth)))

    @cached_property
    def decay_verdicts(self):
        """The L^1 trend, plus the ``|x|^{1 +- eps}`` second-moment pair for psi."""
        names, exponents = ["integrability"], [(1, 0.0)]
        if self.psi:
            eps = self.params["eps"]
            names += ["second_moment_heavy", "second_moment_light"]
            exponents += [(2, 1.0 + eps), (2, 1.0 - eps)]
        return dict(zip(names, divergence_probes(self.time_source, exponents, self.windows)))

    def pointwise(self, s):
        return self._once(("pointwise", s),
                          lambda: pointwise_freq_decay(self.psi or self.spectrum, s))

    @cached_property
    def gate(self):
        pars = self.params
        return FeasibilityGate(alpha=self.psi.alpha, beta=self.psi.beta, gamma=pars["gamma"],
                               delta=pars["delta"], p=pars["p"], q=pars["q"], epsilon=pars["eps"])


def _profile_summary(ctx):
    prof = ctx.profile
    return {"m": prof.m, "M": prof.M, "orthonormality_defect": orthonormality_defect(prof),
            "excluded_band": list(prof.excluded_band) if prof.excluded_band else None}


def _per_n(ctx, n_last):
    return {str(n): ("pass" if ctx.invariance(n).passed else "fail")
            for n in range(2, n_last + 1)}


def _translation_summary(ctx):
    defect, witness = ctx.translation
    return {"translation_defect": defect, "translation_witness": witness,
            "per_n": _per_n(ctx, ctx.n_cap)}


def periodization_section(ctx):
    ks, coeffs = gram_coefficients(ctx.profile, ctx.params["K"])
    return {**_profile_summary(ctx), "riesz_threshold": RIESZ_THRESHOLD,
            "gram": {str(int(k)): [float(c.real), float(c.imag)] for k, c in zip(ks, coeffs)}}


def invariance_section(ctx):
    return {**_translation_summary(ctx), "invariance_group": ctx.group.describe(),
            "magnitude_threshold": MAGNITUDE_THRESHOLD}


def decay_section(ctx):
    block = {"probe_truncation": ctx.time_source.params.J} if ctx.psi else {}
    block["windows"] = ctx.windows
    block.update((name, asdict(v)) for name, v in ctx.decay_verdicts.items())
    return block


def pointwise_section(ctx):
    decay = ctx.pointwise(ctx.params["s"])
    block = {"s": ctx.params["s"], "sup_scaled": decay.sup_value,
             "per_block_peaks": [list(peak) for peak in decay.per_block_peaks]}
    if ctx.spec.kind == "bspline":
        block["envelope_exponent"] = spectrum_envelope_exponent(ctx.spectrum)
    return block


def gates_section(ctx):
    if not ctx.psi:
        return {"note": "exponent gates apply to the banded family only"}
    g = feasibility_gates(ctx.gate)
    central, blocks = psi_block_freq_contributions(ctx.psi, ctx.gate.q, ctx.gate.delta)
    return {"time_lp_ok": g.time_lp_ok, "freq_lq_ok": g.freq_lq_ok, "joint_ok": g.joint_ok,
            "joint_unbounded": g.joint_unbounded, "time_lp_margin": g.time_lp_margin,
            "freq_lq_margin": g.freq_lq_margin, "freq_central_contribution": central,
            "freq_block_contributions": [list(b) for b in blocks]}


def _suite(ctx, sizing):
    """The witness-suite layout, with ``sizing`` in its grid block."""
    spec, grid = ctx.spec, ctx.grid
    if spec.kind == "custom":
        raise ValueError("suite needs a concrete generator, not a custom path")
    report = {
        "generator": spec.to_json(),
        "grid": {"samples_per_unit": grid.samples_per_unit, "half_range": grid.half_range,
                 "n_points": grid.n_points, "sizing": sizing},
        "periodization": {**_profile_summary(ctx),
                          "checks": "bounded below characterizes a stable shift basis; "
                                    "identically 1 characterizes an orthonormal one"},
        "invariance": {**_translation_summary(ctx), "group": ctx.group.describe(),
                       "checks": "disjoint integer translates of the support admit all "
                                 "translations; residue-class concentration admits step 1/n"},
    }
    if ctx.psi:
        time_section = {k: v for k, v in decay_section(ctx).items() if k != "windows"}
    else:
        # the grid route probes its own geometric windows over the sampled span
        span = ctx.signal.half_span
        if spec.kind == "bspline":
            t0 = float(spec.degree + 1)
            ts = [t0 * (span / t0) ** (i / 3.0) for i in range(4)]
        else:
            ts = [span / 64, span / 32, span / 16, span / 8, span / 4]
        time_section = {"integrability": asdict(divergence_probe(ctx.time_source, 1, 0.0, ts))}
    time_section["checks"] = ("a diverging integrability trend witnesses the non-integrability "
                              "forced by full translation invariance; the 1 +- eps pair "
                              "brackets the second-moment obstruction of refined invariance")
    report["time_localization"] = time_section

    decay = ctx.pointwise(0.5)
    freq_section = {"sup_scaled_half": decay.sup_value}
    if ctx.psi:
        freq_section["per_block_peaks"] = [list(peak) for peak in decay.per_block_peaks]
    elif spec.kind == "bspline":
        freq_section["envelope_exponent"] = spectrum_envelope_exponent(ctx.spectrum)
    freq_section["checks"] = ("bounded sup at scaling 1/2 is the optimal pointwise "
                              "frequency decay compatible with refined invariance")
    report["frequency_localization"] = freq_section

    if ctx.psi:
        gates = gates_section(ctx)
        report["gates"] = {"parameters": asdict(ctx.gate),
                           **{k: gates[k] for k in ("time_lp_ok", "freq_lq_ok", "joint_ok",
                                                    "joint_unbounded", "freq_block_contributions",
                                                    "freq_central_contribution")}}
    return report


# the suite section runs on the caller's grid and so reports no sizing of its own
SECTIONS = {"periodization": periodization_section, "invariance": invariance_section,
            "decay": decay_section, "pointwise": pointwise_section, "gates": gates_section,
            "suite": lambda ctx: _suite(ctx, {})}


def run_witness_suite(spec: GeneratorSpec, eps=0.5, gate: FeasibilityGate | None = None,
                      n_max=8, grid=None, windows=DEFAULT_WINDOWS) -> dict:
    """Run the full check battery on one generator and tag each result.

    Combines the periodization/invariance criteria with the localization
    probes: integrability trend, the symmetric second-moment pair at
    weights 1 +- eps (banded generators, analytic route with the truncation
    deepened to cover the window span), the scaled-sup profile, and the
    exponent gates.  Returns a JSON-ready dict with fixed key order.
    """
    ctx = RunContext(spec, "auto" if grid is None else grid,
                     dict(DEFAULT_PARAMETERS, eps=eps, n_max=n_max, windows=list(windows)))
    if gate is not None:
        ctx.gate = gate
    return _suite(ctx, ctx.sizing)


def compare_header(n_max):
    return (["generator", "m", "M", "orthonormality_defect", "invariance_group"]
            + [f"inv_n{n}" for n in range(2, n_max + 1)]
            + ["integrability_verdict", "sup_scaled_half", "freq_gate"])


def compare_row(ctx):
    """One ``compare.csv`` row in :func:`compare_header` order."""
    prof = ctx.profile
    return ([ctx.spectrum.label, prof.m, prof.M, orthonormality_defect(prof),
             ctx.group.describe()]
            + list(_per_n(ctx, ctx.params["n_max"]).values())
            + [divergence_probe(ctx.time_source, 1, 0.0, ctx.windows).verdict,
               ctx.pointwise(ctx.params["s"]).sup_value,
               str(feasibility_gates(ctx.gate).freq_lq_ok) if ctx.psi else ""])
