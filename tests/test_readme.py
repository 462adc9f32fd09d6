"""The README's Python quick start runs, and its option table is the parsers'."""

import argparse
import re
from pathlib import Path

from hoffman.cli import _parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert blocks, "README.md has no ```python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def _table_options() -> dict:
    """{subcommand: set of option strings} from the README's option table."""
    table = {}
    for line in README.read_text().splitlines():
        if line.startswith("| `"):
            spans = re.findall(r"`([^`]*)`", line)
            words = [word for span in spans for word in span.split()]
            table[words[0]] = {word for word in words if word.startswith("-")}
    return table


def test_readme_option_table_matches_the_parsers():
    actions = _parser()._actions
    subparsers = next(a for a in actions if isinstance(a, argparse._SubParsersAction))
    table = _table_options()
    assert set(table) == set(subparsers.choices)
    for name, parser in subparsers.choices.items():
        declared = [a.option_strings for a in parser._actions if a.option_strings]
        declared = [opts for opts in declared if "-h" not in opts]
        # each declared option is listed by one of its spellings, and nothing else is
        listed = table[name]
        assert all(listed & set(opts) for opts in declared), name
        assert listed <= {o for opts in declared for o in opts}, name
