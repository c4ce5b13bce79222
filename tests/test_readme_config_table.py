"""The README's configuration table lists exactly the keys the parser accepts.

The table has one row per section, `| `[section]` | keys |`. In the keys
cell, a parenthesised part explains the key before it (allowed values,
rules) and is skipped; every other backticked name is a key. Those names,
in order, must equal the section's keys in `config._SCHEMA`, and the rows
must cover every section once.
"""

import pathlib
import re

from singflow.config import _SCHEMA

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

_ROW = re.compile(r"^\| `\[(\w+)\]` \| (.*) \|$")
_PARENS = re.compile(r"\([^()]*\)")


def table_keys(text: str) -> dict[str, list[str]]:
    """section -> the backticked names outside parentheses of its table row, in order."""
    rows = {}
    for line in text.splitlines():
        match = _ROW.match(line.strip())
        if match is None:
            continue
        section, cell = match.groups()
        assert section not in rows, f"[{section}] has two rows"
        while _PARENS.search(cell):  # innermost first, so nested parentheses go too
            cell = _PARENS.sub("", cell)
        rows[section] = re.findall(r"`([^`]+)`", cell)
    return rows


def schema_keys() -> dict[str, list[str]]:
    keys: dict[str, list[str]] = {}
    for section, key in _SCHEMA:
        keys.setdefault(section, []).append(key)
    return keys


def test_reader_on_a_synthetic_table():
    text = (
        "| section | keys |\n| --- | --- |\n"
        "| `[grid]` | `n`, `length` |\n"
        "| `[flow]` | `family` (`zero` or `trig` (see `x`)), `dt`, `t_final` (a multiple of `dt`) |\n"
        "Not a row: `[grid]` | `bogus` |\n"
    )
    assert table_keys(text) == {"grid": ["n", "length"], "flow": ["family", "dt", "t_final"]}


def test_readme_table_matches_the_schema():
    assert table_keys(README.read_text(encoding="utf-8")) == schema_keys()
