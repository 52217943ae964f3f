"""``docs/api.md`` names what the packages export: every name in the first
column of the ``repro.core`` and ``repro.apps`` tables is in that package's
``__all__``, and every function ``repro.apps`` exports has a row."""

import inspect
import re
from pathlib import Path

import pytest

import repro.apps
import repro.core

API = Path(__file__).parent.parent / "docs" / "api.md"


def _table_names(package: str) -> set:
    """The names in the first column of the table under ``## `package```:
    each backticked span split on ``/``, its leading identifier taken
    (``ktruss(G, k, ...)`` is ``ktruss``, ``repro.core.kernels`` is
    ``kernels``)."""
    text = API.read_text()
    section = text.split(f"## `{package}`", 1)[1].split("\n## ", 1)[0]
    names = set()
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        first = line.split(" | ", 1)[0]
        for span in re.findall(r"`([^`]+)`", first):
            for part in span.split(" / "):
                name = re.match(r"[A-Za-z_][\w.]*", part.strip()).group(0)
                names.add(name.removeprefix(f"{package}."))
    return names


@pytest.mark.parametrize("package", [repro.core, repro.apps], ids=lambda p: p.__name__)
def test_documented_names_are_exported(package):
    names = _table_names(package.__name__)
    assert names
    assert names <= set(package.__all__), sorted(names - set(package.__all__))


def test_every_exported_app_is_documented():
    functions = {name for name in repro.apps.__all__
                 if inspect.isfunction(getattr(repro.apps, name))}
    missing = functions - _table_names("repro.apps")
    assert not missing, sorted(missing)
