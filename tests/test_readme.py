"""README.md against the code: every config key with its default, and every subcommand."""

import argparse
import dataclasses
import re
from pathlib import Path

import pytest

from groupreg import cli
from groupreg.config import RunConfig, parse_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
KEYS = [f.name for f in dataclasses.fields(RunConfig)]


def subcommands():
    parser = cli._build_parser()
    action, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sorted(action.choices)


def config_table():
    """{key: default text} from the README's rows "| `key` | `default` |",
    an "empty" default read as the empty value."""
    rows = re.findall(r"^\| `(\w+)` \| (?:`([^`]*)`|empty) \|", README, flags=re.MULTILINE)
    return dict(rows)


@pytest.mark.parametrize("command", subcommands())
def test_readme_names_every_subcommand(command):
    assert f"| `{command}" in README


@pytest.mark.parametrize("key", KEYS)
def test_readme_states_every_config_key_with_its_default(key):
    """The table row's default, read as a config line, is the field's default."""
    table = config_table()
    assert key in table
    assert getattr(parse_config(f"{key}={table[key]}\n"), key) == getattr(RunConfig(), key)


def test_readme_lists_no_key_the_config_lacks():
    assert sorted(config_table()) == sorted(KEYS)
