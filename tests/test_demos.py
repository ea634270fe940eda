"""Each demo script runs to completion in a fresh interpreter and prints its
recorded output, byte for byte (``tests/demo_expected/<demo>.txt``)."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
EXPECTED = pathlib.Path(__file__).resolve().parent / "demo_expected"


def test_demos_exist():
    assert DEMOS
    assert sorted(path.stem for path in EXPECTED.glob("*.txt")) == [demo.stem for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout
    assert done.stdout == (EXPECTED / f"{demo.stem}.txt").read_bytes()
