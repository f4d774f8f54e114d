"""Bundled example systems, loadable by name.

Each .psys file under data/ describes one system along with expectation
lines stating what the toolkit should find for it.  The expectations are
checked by the test suite; the solver itself never looks at them.
"""

from __future__ import annotations

from importlib.resources import files

from ..sysfile import ParsedSystem, parse_system

__all__ = ["fixture_names", "load_fixture"]


def _data_dir():
    return files(__package__) / "data"


def fixture_names() -> list:
    out = []
    for entry in _data_dir().iterdir():
        if entry.name.endswith(".psys"):
            out.append(entry.name[: -len(".psys")])
    return sorted(out)


def load_fixture(name: str) -> ParsedSystem:
    path = _data_dir() / f"{name}.psys"
    try:
        text = path.read_text()
    except FileNotFoundError:
        known = ", ".join(fixture_names())
        raise KeyError(f"no bundled system named {name!r} (have: {known})") from None
    return parse_system(text, source=f"fixture:{name}")
