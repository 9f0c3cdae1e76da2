"""docs/API.md against the code: every documented symbol resolves, and
every top-level public name is documented."""

import importlib
import re
from pathlib import Path

import pytest

import repro

API_MD = Path(__file__).resolve().parents[1] / "docs" / "API.md"

#: First-column headers of the tables that list importable symbols (the
#: bench cell-field, cell-family and kernel-coverage tables list names
#: that are not symbols).
SYMBOL_TABLES = {"Symbol", "Protocol"}

_TICKED = re.compile(r"`([^`]+)`")
_NAME = re.compile(r"[A-Za-z_]\w*(?:\.\w+)*(?:\.\*)?")


def _modules_in(text: str) -> list[str]:
    return [t for t in _TICKED.findall(text) if re.fullmatch(r"repro(\.\w+)*", t)]


def _symbol_of(token: str) -> str | None:
    """``Instance(thresholds, ...)`` -> ``Instance``; ``(ok, issues)`` -> None."""
    match = _NAME.match(token.strip())
    return match.group(0) if match else None


def _documented_symbols() -> list[tuple[int, str, tuple[str, ...]]]:
    """``(line, symbol, module bases)`` for every symbol that opens a row of
    a symbol table; a row opening with a plain label (``Schedules``,
    ``Events``, …) contributes the symbols its description lists before
    any " — " remark."""
    rows = []
    section_modules: list[str] = []
    header = None
    for lineno, line in enumerate(API_MD.read_text().splitlines(), 1):
        if line.startswith("#"):
            section_modules = _modules_in(line)
            header = None
            continue
        if not line.startswith("|"):
            header = None
            continue
        cells = [c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]]
        if header is None:
            header = cells[0]
            continue
        if header not in SYMBOL_TABLES or set(cells[0]) <= set("-: "):
            continue
        first = cells[0]
        if "`" not in first:
            first = cells[1].split(" — ")[0]
        row_modules = _modules_in(cells[0])
        bases = tuple(row_modules + section_modules + ["repro"])
        for token in _TICKED.findall(first):
            symbol = _symbol_of(token)
            if symbol is not None and symbol not in row_modules:
                rows.append((lineno, symbol, bases))
    return rows


def _resolves(symbol: str, bases: tuple[str, ...]) -> bool:
    parts = symbol.removesuffix(".*").split(".")
    for base in bases:
        for split in range(len(parts), -1, -1):
            try:
                obj = importlib.import_module(".".join([base, *parts[:split]]))
            except ImportError:
                continue
            try:
                for attr in parts[split:]:
                    obj = getattr(obj, attr)
            except AttributeError:
                break
            return True
    return False


def test_table_parser_finds_the_symbol_rows():
    symbols = {s for _, s, _ in _documented_symbols()}
    # one symbol from each kind of row: a plain row, a module-qualified
    # row, a labelled list row and a method row
    assert {"Instance", "replicate_engine", "StaggeredSchedule", "HUB.enable"} <= symbols
    assert "name" not in symbols  # the bench cell-field table is exempt


_ROWS = {symbol: (lineno, bases) for lineno, symbol, bases in reversed(_documented_symbols())}


@pytest.mark.parametrize("symbol", sorted(_ROWS))
def test_documented_symbol_resolves(symbol):
    lineno, bases = _ROWS[symbol]
    assert _resolves(symbol, bases), (
        f"docs/API.md:{lineno}: `{symbol}` resolves on none of {', '.join(bases)}"
    )


def test_every_top_level_name_is_documented():
    ticked = " ".join(_TICKED.findall(API_MD.read_text()))
    missing = [
        name
        for name in repro.__all__
        if not re.search(rf"(?<![\w]){re.escape(name)}(?![\w])", ticked)
    ]
    assert not missing, f"repro.__all__ names absent from docs/API.md: {missing}"


def test_package_version_has_one_source():
    """pyproject.toml reads the version from ``repro.__version__``."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((API_MD.parents[1] / "pyproject.toml").read_text())
    assert "version" not in pyproject["project"]
    assert "version" in pyproject["project"]["dynamic"]
    source = pyproject["tool"]["setuptools"]["dynamic"]["version"]
    assert source == {"attr": "repro.__version__"}
    assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)
