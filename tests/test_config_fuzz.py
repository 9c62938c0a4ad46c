"""Config fuzzer: every drawn config and command line keeps the CLI's input contract.

Each case spoils one thing of an otherwise valid config and command line: a
``PARAMETERS`` row or a generator field (on its boundary, out of range, huge,
non-finite, or of the wrong JSON type), another config key, the variant, a
flag of ``cli._FLAGS`` (an empty value included), a key the config or its
generator does not take, or the number of configs.  Hypothesis draws the rest
of the config, the command and the other flags.  For every example ``main``
returns 0, 2, 3 or 4, prints at most one stderr line and never a traceback or
a warning, and only a run that exits 0 leaves an output directory.

There is no preflight of a run's size yet, so the draws stay small: a valid
psi has J <= 3 and n <= 3, every valid window list ends at or below 8 (a psi
decay pass costs milliseconds there), the auto grid comes from --grid only,
and compare, whose rows probe the default windows up to 64, draws no valid
psi.  A huge n is drawn: the probe pass refuses a lattice of more than 2^30
points before it builds anything.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sispace import cli
from sispace.localization import PARAMETERS

HUGE = 1e300
KINDS = ("boundary", "out of range", "huge", "non-finite", "wrong type")

# name: (valid, on the boundary, out of range, huge)
PARAMETER_DRAWS = {
    "eps": ([0.25, 0.5], [0], [-1], HUGE),
    "gamma": ([0, 0.5], [0], [-0.5], HUGE),
    "delta": ([0.2, 1], [0], [-1], HUGE),
    "p": ([1, 1.5], [1, 2], [0.5, 3], HUGE),
    "q": ([1, 2], [1], [0.5], HUGE),
    "n_max": ([2, 4], [2], [1, 2.5], HUGE),
    "K": ([0, 4], [0], [-1, 1.5], HUGE),
    "s": ([0.5, 1], [0], [-0.5], HUGE),
    "windows": ([[1, 2, 4, 8], [0.5, 1, 2, 4, 8]], [[1, 2, 3, 4]],
                [[1, 2, 4], [8, 4, 2, 1], [0, 1, 2, 4], [1, 2, 4, math.nan]], [1, 2, 4, HUGE]),
}
PSI_DRAWS = {
    "alpha": ([1, 1.5], [0], [-1], HUGE),
    "beta": ([1, 2], [0], [-1], HUGE),
    "n": ([2, 3], [2], [1, 2.5], HUGE),
    "J": ([1, 2, 3], [1], [0, 1.5], HUGE),
}
FIELD_DRAWS = {**PSI_DRAWS, "degree": ([0, 1, 3], [25], [26, -1], HUGE), **PARAMETER_DRAWS}
# the config's other keys: (valid, spoiled)
CONFIG_DRAWS = {
    "grid": (["32,512", [64, 8], {"S": 32, "Xi": 16}], ["x", [64], "64,16.5"]),
    "analyses": ([[name] for name in cli.ANALYSES] + [["decay", "pointwise", "gates"]],
                 ["decay", [], ["bogus"]]),
    "formats": ([["json"], ["csv"], ["json", "csv"]], ["json", ["xml"]]),
    "output": (["elsewhere"], [5, ["x"], None]),
}
# each flag but --config and --out, which every example sets: (valid, spoiled)
FLAG_VALUES = {
    "--grid": (["32,512", "64,16", "auto"], ["x", "64", ""]),
    "--n-max": (["2", "3"], ["1", "x", "1e300", ""]),
    "--format": (["json", "csv", "json,csv"], ["xml", ""]),
    "--eps": (["0.25", "1"], ["0", "nan", "inf", "1e300", "x", ""]),
    "--windows": (["1,2,4,8"], ["8,4,2,1", "1,2,x", "1,2,4", ""]),
    "--analyses": (["gates", "decay,pointwise", "suite"], ["bogus", ""]),
}
# keys a config does not take, and keys a generator of the drawn variant does not take
UNKNOWN_KEYS = {"config": ["analysis", "variant", "J"],
                "generator": ["j", "degree", "path", "psi", "alpha"]}

SPOILS = [None,
          *((name, kind) for name in FIELD_DRAWS for kind in KINDS),
          *((key, "value") for key in CONFIG_DRAWS),
          *((flag, "value") for flag in FLAG_VALUES),
          *((where, "unknown key") for where in UNKNOWN_KEYS),
          ("variant", "value"), ("flag", "not taken"), ("configs", "one more")]


def test_the_draws_cover_every_row_and_flag():
    assert set(PARAMETER_DRAWS) == set(PARAMETERS)
    assert set(FLAG_VALUES) == set(cli._FLAGS) - {"--config", "--out"}


def value(name, spoil):
    """A valid value of a field, or one of the spoiled kind."""
    valid, boundary, out_of_range, huge = FIELD_DRAWS[name]
    if spoil is None or spoil[0] != name:
        return st.sampled_from(valid)
    return st.sampled_from({"boundary": boundary, "out of range": out_of_range,
                            "huge": [huge], "non-finite": [math.nan, math.inf, -math.inf],
                            "wrong type": [True, "1", [1], None]}[spoil[1]])


@st.composite
def generator(draw, spoil, psi):
    field = spoil and spoil[0]
    if field in PSI_DRAWS:
        variant = "psi"
    elif field == "degree":
        variant = "bspline"
    elif field == "variant":
        variant = draw(st.sampled_from(["custom", "wavelet"]))
    else:
        variant = draw(st.sampled_from(["psi", "sinc", "bspline"] if psi else ["sinc", "bspline"]))
    if variant == "bspline":
        obj = {"variant": variant, "degree": draw(value("degree", spoil))}
    elif variant == "custom":
        obj = {"variant": variant, "path": draw(st.sampled_from(["missing.csv", "."]))}
    elif variant != "psi":
        obj = {"variant": variant}
    else:
        obj = {"variant": variant, **{name: draw(value(name, spoil)) for name in PSI_DRAWS}}
        if not psi:   # where no psi may run, one is never valid
            obj[draw(st.sampled_from([name for name in PSI_DRAWS if name != field]))] = 0
    if spoil == ("generator", "unknown key"):
        key = draw(st.sampled_from([k for k in UNKNOWN_KEYS["generator"] if k not in obj]))
        obj[key] = draw(st.sampled_from([1, "x"]))
    return obj


@st.composite
def config(draw, spoil, psi=True):
    obj = {"generator": draw(generator(spoil, psi))}
    # windows is always given: the default windows reach 64
    names = {*draw(st.lists(st.sampled_from(list(PARAMETERS)), unique=True)), "windows"}
    if spoil and spoil[0] in PARAMETERS:
        names.add(spoil[0])
    obj["parameters"] = {name: draw(value(name, spoil)) for name in PARAMETERS if name in names}
    for key, (valid, bad) in CONFIG_DRAWS.items():
        if spoil == (key, "value"):
            obj[key] = draw(st.sampled_from(bad))
        elif key == "analyses" and spoil and spoil[0] in PARAMETERS:
            obj[key] = ["suite"]   # every analysis reads the spoiled parameter
        elif key == "grid" or draw(st.booleans()):
            obj[key] = draw(st.sampled_from(valid))
    if spoil == ("config", "unknown key"):
        obj[draw(st.sampled_from(UNKNOWN_KEYS["config"]))] = draw(st.sampled_from([1, ["x"]]))
    return obj


@st.composite
def command_line(draw, spoil):
    """A command with its configs and flags, ``spoil`` spoiled."""
    field = spoil and spoil[0]
    commands = [c for c in ("analyze", "construct", "compare")
                if field not in FLAG_VALUES or c in cli._FLAGS[field][1]]
    command = draw(st.sampled_from(commands))
    configs = [draw(config(spoil, psi=command != "compare"))]
    if command == "compare" or field == "configs":
        configs.append(draw(config(None, psi=False)))
    taken = [flag for flag in FLAG_VALUES if command in cli._FLAGS[flag][1]]
    drawn = draw(st.lists(st.sampled_from(taken), unique=True, max_size=2))
    flags = []
    for flag in dict.fromkeys(drawn + ([field] if field in taken else [])):
        valid, bad = FLAG_VALUES[flag]
        flags += [flag, draw(st.sampled_from(bad if flag == field else valid))]
    if field == "flag":   # one the command does not take
        flags += [draw(st.sampled_from(["--bogus", *(f for f in FLAG_VALUES if f not in taken)])),
                  "1"]
    return command, configs, flags


@pytest.mark.parametrize("spoil", SPOILS, ids=lambda s: "valid" if s is None else " ".join(s))
@settings(derandomize=True, database=None, max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_keeps_its_input_contract(spoil, data):
    command, configs, flags = data.draw(command_line(spoil))
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command]
        for i, obj in enumerate(configs):
            path = Path(tmp) / f"c{i}.json"
            path.write_text(json.dumps(obj))
            argv += ["--config", str(path)]
        out = Path(tmp) / "out"
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = cli.main([*argv, "--out", str(out), *flags])
        lines = stderr.getvalue().splitlines()
        assert code in (0, 2, 3, 4), (code, lines)
        assert len(lines) <= 1, lines
        assert not any("Traceback" in line or "Warning" in line for line in lines), lines
        assert out.is_dir() == (code == 0), (code, lines)
        if spoil and spoil[1] == "unknown key":   # refused, never ignored
            assert code == 2, lines
