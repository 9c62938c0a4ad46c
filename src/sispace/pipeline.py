"""One build path and one analysis pipeline for ``analyze``, ``suite`` and ``compare``.

:func:`build` is the only builder dispatch.  A :class:`RunContext` computes
each intermediate of one generator on one grid lazily and at most once;
``SECTIONS`` maps each analysis name to a function ``ctx -> dict``; the
``suite`` section (also :func:`run_witness_suite`) runs all the others, and
:func:`compare_row` projects the same context into one CSV row.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, replace
from functools import cached_property
from pathlib import Path

from .generators import (GeneratorSpec, PsiParams, _integer, _number, auto_grid,
                         build_bspline, build_psi_spectrum, build_sinc)
from .grid import FrequencyGrid, GridError, to_time_domain
from .localization import (MIN_PROBE_WINDOWS, PARAMETERS, divergence_probes,
                           feasibility_gates, pointwise_freq_decay,
                           psi_block_freq_contributions, spectrum_envelope_exponent,
                           truncation_depth_for_span)
from .report import read_spectrum_csv
from .spectral import (MAGNITUDE_THRESHOLD, RIESZ_THRESHOLD, gram_coefficients,
                       grid_criteria, orthonormality_defect)

# the decay probes: the L^1 trend, then for psi the |x|^{1 +- eps} second-moment pair
DECAY_PROBES = ("integrability", "second_moment_heavy", "second_moment_light")
SIDECAR = "meta.json"   # beside a spectrum.csv: construct writes it, a custom spectrum reads it


class ConfigError(Exception):
    pass


def typed_parameters(given):
    """Every row of ``PARAMETERS``: its value in the dict ``given`` or its
    default, converted and range-checked; ConfigError for a bad value or an
    unknown key."""
    if "J" in given:
        raise ConfigError("parameters.J is not supported; set generator.J instead")
    unknown = [key for key in given if key not in PARAMETERS]
    if unknown:
        raise ConfigError(f"unknown parameters {unknown}; choose from {tuple(PARAMETERS)}")
    typed = {}
    for name, row in PARAMETERS.items():
        value = given.get(name, row.default)
        try:
            typed[name] = row.read(value, name)
        except (TypeError, ValueError, OverflowError) as e:
            raise ConfigError(f"bad parameter {name} = {value!r}: {e}") from e
    return typed


def load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path} is not UTF-8: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"bad JSON in {path}: {e}") from e
    except RecursionError as e:
        raise ConfigError(f"bad JSON in {path}: nested too deeply") from e


def read_grid(grid):
    """"auto" or the :class:`FrequencyGrid` of a grid given as one, or as "S,Xi",
    {"S", "Xi"} or [S, Xi]; ConfigError unless ``S`` and ``Xi`` are integral."""
    if grid == "auto" or isinstance(grid, FrequencyGrid):
        return grid
    if isinstance(grid, dict) and grid.keys() - {"S", "Xi"}:
        raise ConfigError(f"bad grid {grid!r}; an object takes the keys S and Xi only")
    try:
        fields = ([int(v) for v in grid.split(",")] if isinstance(grid, str)
                  else (grid["S"], grid["Xi"]) if isinstance(grid, dict) else grid)
        S, Xi = (_integer(v, "grid") for v in fields)
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"bad grid {grid!r}; expected S,Xi or auto") from e
    return FrequencyGrid(S, Xi)


def _read_custom(path, grid):
    """The spectrum of a custom CSV, with the ``label`` and ``spectrum_meta`` of
    the ``meta.json`` sidecar next to it when present.  ConfigError naming the
    sidecar unless it and its ``spectrum_meta`` are objects, the
    ``exclusion_halfwidth`` is null or a finite number >= 0, any ``grid`` is
    an object with the spectrum's ``samples_per_unit`` and ``half_range``, and
    any ``blocks`` are those of the sidecar's ``psi`` and fit the spectrum's
    grid."""
    meta_path = Path(path).parent / SIDECAR   # "." and "/" have no name
    meta = load_json(meta_path) if meta_path.exists() else {}
    spectrum_meta = meta.get("spectrum_meta", {}) if isinstance(meta, dict) else None
    if not isinstance(spectrum_meta, dict):
        raise ConfigError(f"bad sidecar {meta_path}: it and its spectrum_meta must be "
                          "JSON objects")
    sidecar_grid = meta.get("grid", {})
    if not isinstance(sidecar_grid, dict):
        raise ConfigError(f"bad sidecar {meta_path}: its grid must be a JSON object, got "
                          f"{json.dumps(sidecar_grid)}")
    hw = spectrum_meta.get("exclusion_halfwidth")
    try:
        if hw is not None and not 0 <= _number(hw, "exclusion_halfwidth") < math.inf:
            raise ValueError(f"exclusion_halfwidth must be finite and >= 0, got {hw!r}")
    except (ValueError, OverflowError) as e:
        raise ConfigError(f"bad sidecar {meta_path}: {e}") from e
    psi = None
    if "blocks" in spectrum_meta:
        try:
            psi = PsiParams(**spectrum_meta.get("psi", {}))
        except (TypeError, ValueError, OverflowError) as e:
            raise ConfigError(f"bad sidecar {meta_path}: blocks need the psi parameters "
                              f"they come from: {e}") from e
        if spectrum_meta["blocks"] != psi.blocks:
            raise ConfigError(f"bad sidecar {meta_path}: the blocks are not those of "
                              f"{psi.label}")
    try:
        spectrum = read_spectrum_csv(path, grid=grid, meta=spectrum_meta,
                                     label=str(meta.get("label", "custom")))
    except OSError as e:
        raise ConfigError(f"cannot read custom spectrum: {e}") from e
    if "grid" in meta:
        given = [sidecar_grid.get(key) for key in ("samples_per_unit", "half_range")]
        held = [spectrum.grid.samples_per_unit, spectrum.grid.half_range]
        if given != held:
            raise ConfigError(f"bad sidecar {meta_path}: its grid has samples_per_unit and "
                              f"half_range {json.dumps(given)}, the spectrum {held}")
    if psi is not None and spectrum.grid.half_range < psi.required_half_range:
        raise ConfigError(f"bad sidecar {meta_path}: the blocks of {psi.label} need "
                          f"half_range >= {psi.required_half_range}, the spectrum has "
                          f"{spectrum.grid.half_range}")
    return spectrum


def build(spec: GeneratorSpec, grid):
    """``(spectrum, signal)`` on a :class:`FrequencyGrid`; ``signal`` is
    None unless the builder samples it exactly (B-splines).  A custom spectrum
    is read by :func:`_read_custom`, on its own grid when ``grid`` is None."""
    if spec.kind == "custom":
        return _read_custom(spec.path, grid), None
    if spec.kind == "sinc":
        return build_sinc(grid), None
    if spec.kind == "bspline":
        signal, spectrum = build_bspline(spec.degree, grid)
        return spectrum, signal
    return build_psi_spectrum(spec.psi, grid), None


class RunContext:
    """One generator on one grid with typed analysis parameters.

    Each intermediate is built on first use and kept: a psi run whose
    analyses never read the spectrum never builds it, the grid criteria
    share one fold of the spectrum, and the decay probes share one pass over
    the probe lattice.
    """

    def __init__(self, spec: GeneratorSpec, grid, parameters):
        self.spec, self.params = spec, parameters
        self.psi = spec.psi
        if grid != "auto":   # a FrequencyGrid, from read_grid
            self.grid, self.sizing = grid, {"rule": "explicit"}
        elif spec.kind != "custom":
            self.grid, self.sizing = auto_grid(spec)
        else:   # a custom spectrum on "auto" brings its own grid
            self.grid, self.sizing = None, {"rule": "from-file"}
            self.grid = self.spectrum.grid
        self.n_cap = int(min(parameters["n_max"], self.grid.half_range // 2))

    @cached_property
    def _built(self):
        return build(self.spec, self.grid)

    @property
    def spectrum(self):
        return self._built[0]

    @cached_property
    def signal(self):
        return self._built[1] if self._built[1] is not None else to_time_domain(self.spectrum)

    @cached_property
    def criteria(self):
        """G, the translation defect and the 1/n reports for n <= ``n_cap``."""
        return grid_criteria(self.spectrum, self.n_cap)

    @cached_property
    def windows(self):
        """As given on the analytic route; on the grid route those inside the
        sampled span, or ``MIN_PROBE_WINDOWS`` of them halving down from it."""
        if self.psi:
            return list(self.params["windows"])
        span = self.signal.grid.time_half_span
        windows = [float(T) for T in self.params["windows"] if T <= span]
        return windows if len(windows) >= MIN_PROBE_WINDOWS else [
            span / 2 ** k for k in range(MIN_PROBE_WINDOWS - 1, -1, -1)]

    @cached_property
    def time_source(self):
        """The probes' source: the sampled signal, or for psi the generator
        truncated deep enough for its envelope to cover the windows."""
        if not self.psi:
            return self.signal
        depth = truncation_depth_for_span(self.psi.alpha, max(self.windows))
        return replace(self.psi, J=max(self.psi.J, depth))

    @cached_property
    def decay_verdicts(self):
        """One verdict per name of ``DECAY_PROBES`` (the first only, unless psi)."""
        exponents = [(1, 0.0)]
        if self.psi:
            eps = self.params["eps"]
            exponents += [(2, 1.0 + eps), (2, 1.0 - eps)]
        return dict(zip(DECAY_PROBES,
                        divergence_probes(self.time_source, exponents, self.windows)))

    @cached_property
    def pointwise(self):
        return pointwise_freq_decay(self.psi or self.spectrum, self.params["s"])

    @cached_property
    def gates(self):
        """psi's exponent inequalities at the run's ``gamma``, ``delta``, ``p`` and ``q``."""
        return feasibility_gates(self.psi.alpha, self.psi.beta,
                                 **{k: self.params[k] for k in ("gamma", "delta", "p", "q")})


def grid_block(ctx):
    grid = ctx.grid
    return {"samples_per_unit": grid.samples_per_unit, "half_range": grid.half_range,
            "n_points": grid.n_points, "spacing": grid.spacing,
            "time_spacing": grid.time_spacing, "sizing": ctx.sizing}


def _per_n(ctx):
    return {str(r.n): ("pass" if r.passed else "fail") for r in ctx.criteria.per_n}


def periodization_section(ctx):
    prof = ctx.criteria.profile
    ks, coeffs = gram_coefficients(prof, ctx.params["K"])
    return {"m": prof.m, "M": prof.M, "orthonormality_defect": orthonormality_defect(prof),
            "excluded_band": list(prof.excluded_band) if prof.excluded_band else None,
            "riesz_threshold": RIESZ_THRESHOLD,
            "gram": {str(int(k)): [float(c.real), float(c.imag)] for k, c in zip(ks, coeffs)}}


def invariance_section(ctx):
    defect, witness = ctx.criteria.translation
    return {"translation_defect": defect, "translation_witness": witness,
            "per_n": _per_n(ctx), "invariance_group": ctx.criteria.group.describe(),
            "magnitude_threshold": MAGNITUDE_THRESHOLD}


def decay_section(ctx):
    block = {"probe_truncation": ctx.time_source.J} if ctx.psi else {}
    block["windows"] = ctx.windows
    block.update((name, asdict(v)) for name, v in ctx.decay_verdicts.items())
    return block


def pointwise_section(ctx):
    block = asdict(ctx.pointwise)
    if ctx.spec.kind == "bspline":
        block["envelope_exponent"] = spectrum_envelope_exponent(ctx.spectrum)
    return block


def gates_section(ctx):
    if not ctx.psi:
        return {"note": "exponent gates apply to the banded family only"}
    central, blocks = psi_block_freq_contributions(ctx.psi, ctx.params["q"], ctx.params["delta"])
    return {**asdict(ctx.gates), "freq_central_contribution": central,
            "freq_block_contributions": [list(b) for b in blocks]}


CHECKS = {
    "periodization": "bounded below characterizes a stable shift basis; "
                     "identically 1 characterizes an orthonormal one",
    "invariance": "disjoint integer translates of the support admit all translations; "
                  "residue-class concentration admits step 1/n",
    "decay": "a diverging integrability trend witnesses the non-integrability forced by "
             "full translation invariance; the 1 +- eps pair brackets the second-moment "
             "obstruction of refined invariance",
    "pointwise": "bounded sup at scaling s; s = 1/2 is the optimal pointwise frequency "
                 "decay compatible with refined invariance",
    "gates": "exact arithmetic gates on the exponent inequalities that govern which "
             "weighted norms stay finite",
}


def suite_section(ctx):
    """The generator and its grid, then every other section tagged with ``checks``,
    the statement it witnesses."""
    report = {"generator": ctx.spec.to_json(), "grid": grid_block(ctx)}
    for name, section in SECTIONS.items():
        if name in CHECKS:
            report[name] = {**section(ctx), "checks": CHECKS[name]}
    return report


SECTIONS = {"periodization": periodization_section, "invariance": invariance_section,
            "decay": decay_section, "pointwise": pointwise_section, "gates": gates_section,
            "suite": suite_section}


def run_witness_suite(spec: GeneratorSpec, grid="auto", **parameters) -> dict:
    """The ``suite`` section of one generator on ``grid`` (as :func:`read_grid`
    reads it): every analysis, each tagged with the statement it witnesses,
    with any row of ``PARAMETERS`` given by name and the others at their
    defaults.  Returns a JSON-ready dict with fixed key order; ConfigError for
    a bad grid, an unknown parameter or one out of its range.
    """
    return suite_section(RunContext(spec, read_grid(grid), typed_parameters(parameters)))


def compare_header(n_max):
    return (["generator", "m", "M", "orthonormality_defect", "invariance_group"]
            + [f"inv_n{n}" for n in range(2, n_max + 1)]
            + ["integrability_verdict", "sup_scaled_half", "freq_gate"])


def compare_row(ctx):
    """One ``compare.csv`` row in :func:`compare_header` order."""
    if ctx.n_cap < ctx.params["n_max"]:   # one column per n: no cap as in analyze
        raise GridError(f"n_max = {ctx.params['n_max']} too large for half_range "
                        f"{ctx.grid.half_range}")
    prof = ctx.criteria.profile
    return ([ctx.spectrum.label, prof.m, prof.M, orthonormality_defect(prof),
             ctx.criteria.group.describe()]
            + list(_per_n(ctx).values())
            + [ctx.decay_verdicts["integrability"].verdict,
               ctx.pointwise.sup_scaled,
               str(ctx.gates.freq_lq_ok) if ctx.psi else ""])
