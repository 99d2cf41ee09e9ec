"""Every `epistyle` command that README.md shows parses with the CLI's own
parser, naming each option exactly: the README counterpart of
test_bench_contract, so that a flag the docs still show cannot be deleted
unnoticed. Every ini block it shows passes the CLI's whole-file config check,
so that a key the docs still show cannot be renamed, deleted or made invalid
unnoticed."""

import re
import shlex
from pathlib import Path
from types import SimpleNamespace

import pytest

from epistyle import cli
from epistyle.cli import build_parser
from test_bench_contract import _subcommands

README = Path(__file__).resolve().parents[1] / "README.md"

# the shell variables of README's examples, each with a value to stand for it
VARIABLES = {"$W": "work", "$C": "configs/desk.ini", "$M": "alpha", "$S": "0"}


def _commands() -> list[str]:
    """Each `epistyle ...` line of README's sh blocks, continuations joined
    and variables substituted."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            line = line.strip()
            if line.startswith("epistyle "):
                for name, value in VARIABLES.items():
                    line = line.replace(name, value)
                commands.append(line)
    return commands


COMMANDS = _commands()


def test_readme_shows_every_subcommand_but_ingest():
    assert {c.split()[1] for c in COMMANDS} == set(_subcommands()) - {"ingest"}


@pytest.mark.parametrize("command", COMMANDS, ids=[f"{i}-{c.split()[1]}" for i, c in
                                                   enumerate(COMMANDS)])
def test_every_readme_command_parses(command):
    assert "$" not in command
    argv = shlex.split(command)[1:]
    # exact names: argparse would also accept a flag that is now only a prefix
    options = _subcommands()[argv[0]]._option_string_actions
    assert {a for a in argv if a.startswith("-")} <= set(options)
    build_parser().parse_args(argv)


INI_BLOCKS = re.findall(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_readme_shows_an_ini_block():
    assert INI_BLOCKS


@pytest.mark.parametrize("block", INI_BLOCKS, ids=[str(i) for i in range(len(INI_BLOCKS))])
def test_every_readme_ini_block_passes_the_config_check(block, tmp_path):
    path = tmp_path / "config.ini"
    path.write_text(block, encoding="utf-8")
    # synth sets no config key by flag, so the check sees the file as written
    cli._settings(SimpleNamespace(config=str(path), command="synth"))
