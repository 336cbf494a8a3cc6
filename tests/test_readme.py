"""The README's hand-kept config tables against the code they describe."""

import re
from pathlib import Path

from channel_limits import config

README = Path(__file__).resolve().parent.parent / "README.md"


def _table(header: str) -> list[list[str]]:
    """Rows of the README table under `header`, each a list of stripped cells."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index(header) + 2  # past the header and its --- row
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip().strip("|").split("|")])
    return rows


def _names(cell: str) -> tuple[str, ...]:
    return tuple(re.findall(r"`([^`]+)`", cell))


def test_config_key_table_lists_every_parsed_key():
    keys = [key for row in _table("| key | meaning |") for key in _names(row[0])]
    assert sorted(keys) == sorted(config._PARSERS)


def test_reads_table_matches_the_experiment_reads():
    rows = _table("| experiment | reads |")
    documented = {_names(row[0])[0]: _names(row[1]) for row in rows}
    assert documented == config._READS["experiment"]
