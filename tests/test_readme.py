"""The README's Python examples run as written, its spec example names
every spec key, its CLI block and the ``mprl.cli`` docstring name every
subcommand, its exit-code table, that docstring and the ``EXIT_*``
constants name the same codes, its strategy table is
``mprl.labels.SCHEMES``, the settings it names as a cohort member's own
are ``mprl.trainer.MEMBER_SETTINGS``, and the byte budgets it states for
retrieval are the ``mprl.retrieval`` ones."""

import argparse
import re
from dataclasses import fields
from pathlib import Path

from mprl import cli, retrieval, trainer
from mprl.cli import build_parser
from mprl.experiment import ExperimentSpec
from mprl.labels import SCHEMES

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run_in_order_in_one_namespace():
    text = README.read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)
    assert blocks and len(blocks) == text.count("```python")
    namespace = {}
    for number, block in enumerate(blocks, start=1):
        exec(compile(block, f"{README.name}, python block {number}", "exec"), namespace)


def test_spec_example_and_its_defaults_name_exactly_the_spec_keys():
    text = README.read_text()
    (block,) = re.findall(r"^```ini\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)
    example = [line.split("=", 1)[0].strip() for line in block.splitlines() if "=" in line]
    paragraph = re.search(r"^Keys the example leaves at their defaults:(.*?)\n\n",
                          text, re.MULTILINE | re.DOTALL).group(1)
    # each default key is written as `key` (default)
    defaults = re.findall(r"`(\w+)`\s+\(", paragraph)
    named = example + defaults
    assert len(named) == len(set(named)), "a key is named twice"
    assert set(named) == {f.name for f in fields(ExperimentSpec)}


def test_cli_block_and_cli_docstring_name_exactly_the_subcommands():
    (subparsers,) = [action for action in build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    block = re.search(r"^## CLI\n+```sh\n(.*?)^```$", README.read_text(),
                      re.MULTILINE | re.DOTALL).group(1)
    in_readme = re.findall(r"^mprl ([\w-]+)", block, re.MULTILINE)
    in_docstring = re.findall(r"^\* ``([\w-]+)`` +--", cli.__doc__, re.MULTILINE)
    assert sorted(in_readme) == sorted(in_docstring) == sorted(subparsers.choices)


def outside_parentheses(text):
    """``text`` without its parenthesized asides, nested ones included,
    with code marks and whitespace normalized and no final period."""
    while True:
        shorter = re.sub(r" ?\([^()]*\)", "", text)
        if shorter == text:
            break
        text = shorter
    return " ".join(text.replace("``", "`").split()).rstrip(".")


def test_exit_code_table_docstring_and_constants_agree():
    table = re.findall(r"^\| (\d+) \| (.*) \|$", README.read_text(), re.MULTILINE)
    listed = re.findall(r"^\* (\d+) -- (.*?)(?=^\* |\n\n|\Z)", cli.__doc__,
                        re.MULTILINE | re.DOTALL)
    constants = {value for name, value in vars(cli).items() if name.startswith("EXIT_")}
    assert sorted(int(code) for code, _ in table) == sorted(constants)
    assert [code for code, _ in table] == [code for code, _ in listed]
    # the two descriptions of a code agree but for their asides
    for (code, in_readme), (_, in_docstring) in zip(table, listed):
        assert outside_parentheses(in_readme) == outside_parentheses(in_docstring), code


def test_strategy_table_is_the_code_table():
    section = re.search(r"^## Training strategies\n(.*?)^## ", README.read_text(),
                        re.MULTILINE | re.DOTALL).group(1)
    table = re.findall(r"^\| `(\w+)` \| (.*) \|$", section, re.MULTILINE)
    in_code = [(strategy.value, " | ".join([
        scheme.rule.value, scheme.schedule.value,
        f"K + {scheme.extra_classes}" if scheme.extra_classes else "K", repr(scheme.gen_weight)]))
        for strategy, scheme in SCHEMES.items()]
    assert table == in_code


def test_member_settings_are_the_code_member_settings():
    # the sentence that names them, up to its period: each setting in code marks
    named = re.search(r"\(`mprl\.trainer\.MEMBER_SETTINGS`\):(.*?)\.", README.read_text(),
                      re.DOTALL).group(1)
    assert set(re.findall(r"`(\w+)`", named)) == trainer.MEMBER_SETTINGS


def test_retrieval_budgets_are_the_code_budgets():
    section = re.search(r"^## Retrieval\n(.*?)^#", README.read_text(),
                        re.MULTILINE | re.DOTALL).group(1)
    stated = re.findall(r"(plane|ranking) budget, (\d+) MiB", section)
    in_code = {"plane": retrieval.BLOCK_BYTES, "ranking": retrieval._rank_bytes()}
    assert {kind for kind, _ in stated} == set(in_code)
    for kind, mib in stated:
        assert int(mib) * 2**20 == in_code[kind], kind
