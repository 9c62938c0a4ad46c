"""The public names: every name in ``sispace.__all__``, and every ``sp.<name>``
of the README's library tour, resolves on the package; the README's table of
analysis parameters is ``localization.PARAMETERS``."""

import json
import re
from pathlib import Path

import sispace
from sispace.localization import PARAMETERS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    assert [name for name in sispace.__all__ if not hasattr(sispace, name)] == []


def test_readme_tour_uses_only_exported_names():
    tour = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    names = set(re.findall(r"\bsp\.(\w+)", tour))
    assert names
    assert sorted(names - set(sispace.__all__)) == []
    assert all(hasattr(sispace, name) for name in names)


def test_readme_parameter_table_is_the_parameters_table():
    # key, default, type and range of each row
    rows = re.findall(r"^\| `(\w+)` \| `([^`]*)` \| ([^|]+?) \| ([^|]+?) \|",
                      README.read_text(), re.M)
    types = {"_number": "number", "_integer": "integer", "_windows": "list of numbers"}
    assert rows == [(name, json.dumps(list(row.default) if name == "windows" else row.default),
                     types[row.convert.__name__], row.rule) for name, row in PARAMETERS.items()]
