"""Golden outputs of the scripts in `demos/`.

Each demo runs in a fresh interpreter with `PYTHONPATH=src` and its stdout
must match `demos_golden.json` byte for byte, so a refactor that moves a
printed answer fails here.  After an intended change, rewrite the fixture
with

    PYTHONPATH=src python tests/test_demos_golden.py

and record the changed entries in CHANGES.md.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURE = pathlib.Path(__file__).resolve().parent / "demos_golden.json"
DEMOS = sorted(path.name for path in (ROOT / "demos").glob("*.py"))


def run_demo(name: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          cwd=ROOT, env=env, capture_output=True, check=True)
    return proc.stdout.decode("utf-8")


def test_fixture_covers_every_demo():
    assert sorted(json.loads(FIXTURE.read_text())) == DEMOS


@pytest.mark.parametrize("name", DEMOS)
def test_demo_matches_golden(name):
    assert run_demo(name) == json.loads(FIXTURE.read_text())[name]


if __name__ == "__main__":
    golden = {name: run_demo(name) for name in DEMOS}
    FIXTURE.write_text(json.dumps(golden, indent=2, sort_keys=True,
                                  ensure_ascii=False) + "\n")
