"""README.md against the code: every config key with its default, every subcommand,
and every diagnostics.json key of both models."""

import argparse
import dataclasses
import json
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


def diagnostics_table():
    """{key: model} from the README's rows "| `key` | model |"."""
    rows = re.findall(r"^\| `(\w+)` \| (both|symmetric|conventional) \|", README,
                      flags=re.MULTILINE)
    return dict(rows)


@pytest.mark.parametrize("model", ["symmetric", "conventional"])
def test_readme_lists_every_diagnostics_key_and_no_other(tmp_path, model):
    """The keys of a short fit's diagnostics.json are the table's rows for
    its model and for both."""
    cfg = tmp_path / "fit.cfg"
    cfg.write_text(f"model={model}\nscenario=cosine\nn_subjects=3\nseed=1\n"
                   "total=4\nburn_in=2\nthin=1\ninit_iters=2\n")
    assert cli.main(["fit", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    keys = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
    table = diagnostics_table()
    assert sorted(keys) == sorted(k for k, m in table.items() if m in ("both", model))
