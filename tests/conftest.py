import os
import subprocess
import sys
from pathlib import Path

import pytest

import chainsup


def _child_env() -> dict:
    """The environment of a child Python process that imports this chainsup.

    The child's `PYTHONPATH` starts with the absolute directory that holds
    the `chainsup` package this test process imported (`src/` in a
    checkout, `site-packages` for an installed copy), followed by any
    existing entries. A relative entry such as `PYTHONPATH=src` therefore
    cannot leave the child without the package when it runs in another
    working directory, and the child runs the same code the tests import.
    """
    env = dict(os.environ)
    root = str(Path(chainsup.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p)
    return env


@pytest.fixture
def run_cli():
    """Run `python -m chainsup.cli` in a child process."""
    env = _child_env()

    def run(args, cwd):
        return subprocess.run([sys.executable, "-m", "chainsup.cli", *args],
                              capture_output=True, text=True, cwd=cwd, env=env)

    return run


@pytest.fixture
def run_python():
    """Run `python -c code` in a fresh child process; returns its stdout."""
    env = _child_env()

    def run(code):
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, env=env)
        assert r.returncode == 0, r.stderr
        return r.stdout

    return run
