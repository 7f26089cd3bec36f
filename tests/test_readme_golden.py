"""Golden outputs of the README's command-line examples.

Every `nonnef ...` line of the README's "Command line" block runs through
`main(["--json", ...])` and its output must match `readme_cli_golden.json`
byte for byte, so an answer that moves between commits fails here.  After
an intended change, rewrite the fixture with

    PYTHONPATH=src python tests/test_readme_golden.py

and record the changed entries in CHANGES.md.
"""

import json
import pathlib
import shlex

import pytest

from test_cli import run_cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURE = pathlib.Path(__file__).resolve().parent / "readme_cli_golden.json"


def readme_commands():
    """The README's `nonnef` example lines, continuation lines joined."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    joined = block.replace("\\\n", " ")
    return [" ".join(line.split()) for line in joined.splitlines()
            if line.strip().startswith("nonnef ")]


def run_json(command: str):
    code, out = run_cli(["--json"] + shlex.split(command)[1:])
    return {"exit": code, "stdout": out}


def test_fixture_covers_every_readme_example():
    assert sorted(json.loads(FIXTURE.read_text())) == sorted(readme_commands())


@pytest.mark.parametrize("command", readme_commands())
def test_readme_example_matches_golden(command):
    assert run_json(command) == json.loads(FIXTURE.read_text())[command]


if __name__ == "__main__":
    golden = {command: run_json(command) for command in readme_commands()}
    FIXTURE.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
