"""The public names: every name in ``sispace.__all__``, and every ``sp.<name>``
of the README's library tour, resolves on the package."""

import re
from pathlib import Path

import sispace

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    assert [name for name in sispace.__all__ if not hasattr(sispace, name)] == []


def test_readme_tour_uses_only_exported_names():
    tour = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    names = set(re.findall(r"\bsp\.(\w+)", tour))
    assert names
    assert sorted(names - set(sispace.__all__)) == []
    assert all(hasattr(sispace, name) for name in names)
