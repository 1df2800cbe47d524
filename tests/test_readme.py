"""The README's Python quick start runs as written, and its CLI quick start
and flag table (with its defaults) match the parser."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from riskgap.cli import _manifest_from_args, build_parser

from test_cli import COMMAND_FLAGS, NO_DEFAULT, assert_manifest_default, stated_defaults

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_quick_start_runs():
    section = README.read_text().split("## Quick start (Python)", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    # the block ends by printing each certified bound's kind first
    first_words = {line.split()[0] for line in out.getvalue().splitlines() if line}
    assert first_words & {"L1", "L2"}


def test_readme_cli_quick_start_parses():
    section = README.read_text().split("## Quick start (CLI)", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    argvs = [shlex.split(line)[1:] for line in block.splitlines()
             if line.startswith("riskgap ")]
    assert {argv[0] for argv in argvs} == set(COMMAND_FLAGS)
    for argv in argvs:  # argparse exits on a flag the command lacks
        _manifest_from_args(build_parser().parse_args(argv))


def test_readme_flag_table_matches_the_parser():
    rows = re.findall(r"^\| (`--.*?) \| (.*?) \| (.*?) \|", README.read_text(), re.M)
    documented = {command: set() for command in COMMAND_FLAGS}
    for flags, commands, default in rows:
        names = commands.split(", ") if commands != "all" else list(COMMAND_FLAGS)
        for command in names:
            documented[command] |= set(re.findall(r"`(--[a-z]+)", flags))
            # the default column is the one --help states, RunManifest's
            stated = stated_defaults(command)
            for flag in set(re.findall(r"`(--[a-z]+)", flags)) - NO_DEFAULT:
                assert default.strip("`") == stated.get(flag), flag
                assert_manifest_default(command, flag, default.strip("`"))
    assert documented == COMMAND_FLAGS
