"""Access to the bundled diagram table and `path#name` references.

A diagram reference is resolved in this order:

* text containing ``[`` or a ``components=`` preamble is inline PD code;
* ``path#name`` picks the named row out of a table file, where ``path``
  is looked up on disk first and then among the bundled tables
  (``knots.pdtab``);
* anything else is a path to a file whose contents are one PD code.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path

from .diagram import Diagram, load_table, parse_pd

__all__ = [
    "bundled_table",
    "resolve_diagram_ref",
    "SuiteCase",
    "load_suite",
    "bundled_suite_path",
    "TableError",
]


class TableError(ValueError):
    """Raised for unknown tables, missing rows, or unreadable files."""


@lru_cache(maxsize=None)
def _bundled(filename: str) -> dict[str, Diagram]:
    res = resources.files("finitype.data").joinpath(filename)
    if not res.is_file():
        raise TableError(f"no bundled table named {filename!r}")
    return load_table(res.read_text())


def bundled_table(name: str = "knots.pdtab") -> dict[str, Diagram]:
    """The bundled table as a name -> Diagram mapping."""
    return dict(_bundled(name))


def _read_file(path: str | Path) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise TableError(f"cannot read {path}: {e.strerror or e}") from e


def _find_file(path_text: str, relative_to: Path | None) -> Path | None:
    """The file at path_text, looked up in relative_to first, then in the
    working directory; None if neither has it."""
    here = Path(path_text)
    candidates = [here] if relative_to is None else [relative_to / path_text, here]
    return next((p for p in candidates if p.is_file()), None)


def _load_any_table(path_text: str, relative_to: Path | None) -> dict[str, Diagram]:
    p = _find_file(path_text, relative_to)
    if p is not None:
        return load_table(_read_file(p))
    try:
        return _bundled(Path(path_text).name)
    except TableError:
        raise TableError(f"no such table file: {path_text}") from None


def resolve_diagram_ref(ref: str, *, relative_to: Path | None = None) -> Diagram:
    """Turn a CLI/manifest diagram reference into a Diagram.

    relative_to resolves bare paths against a manifest's directory before
    the working directory.
    """
    ref = ref.strip()
    if "[" in ref or ref.startswith("components="):
        return parse_pd(ref)
    if "#" in ref:
        path_text, _, row = ref.rpartition("#")
        table = _load_any_table(path_text, relative_to)
        if row not in table:
            raise TableError(
                f"table {path_text!r} has no row {row!r} "
                f"(rows: {', '.join(table)})"
            )
        return table[row]
    p = _find_file(ref, relative_to)
    if p is None:
        raise TableError(f"no such file: {ref}")
    return parse_pd(_read_file(p))


@dataclass(frozen=True)
class SuiteCase:
    """One manifest row: a diagram plus the crossings to alternate over."""

    label: str
    diagram: Diagram
    crossings: tuple[int, ...]


def bundled_suite_path(name: str) -> Path:
    """Filesystem path of a bundled ``*.suite`` manifest."""
    res = resources.files("finitype.data").joinpath(name)
    if not res.is_file():
        raise TableError(f"no bundled suite named {name!r}")
    with resources.as_file(res) as p:
        return Path(p)


def load_suite(path: str | Path) -> list[SuiteCase]:
    """Parse a suite manifest.

    Each non-comment line is ``<diagram-ref><TAB><c1,c2,...>`` where the
    crossing indices are 0-based.  Bare table paths inside a reference are
    resolved relative to the manifest's directory first.
    """
    p = Path(path)
    if not p.is_file():
        try:
            p = bundled_suite_path(p.name)
        except TableError:
            raise TableError(f"no such suite file: {path}") from None
    cases: list[SuiteCase] = []
    for lineno, raw in enumerate(_read_file(p).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        ref, sep, crossing_text = line.partition("\t")
        if not sep:
            ref, sep, crossing_text = line.rpartition(" ")
        if not sep:
            raise TableError(f"{p}:{lineno}: expected '<ref><TAB><crossings>'")
        try:
            crossings = tuple(
                int(c) for c in crossing_text.replace(" ", "").split(",") if c
            )
        except ValueError:
            raise TableError(
                f"{p}:{lineno}: bad crossing list {crossing_text!r}"
            ) from None
        if not crossings:
            raise TableError(f"{p}:{lineno}: empty crossing list")
        diagram = resolve_diagram_ref(ref.strip(), relative_to=p.parent)
        cases.append(SuiteCase(ref.strip(), diagram, crossings))
    if not cases:
        raise TableError(f"suite {p} has no cases")
    return cases
