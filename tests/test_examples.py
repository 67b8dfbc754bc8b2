"""Smoke tests for the runnable examples.

Each example is executed the way a reader would run it — a fresh
interpreter via subprocess with ``src`` on the path — and must exit
cleanly.  This keeps the documented entry points from rotting when
internals move underneath them (imports, protocol registry names,
builder signatures).
"""

import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def _run_example(name: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / name)],
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )


@pytest.mark.parametrize(
    "script, markers",
    [
        ("quickstart.py", ["Agreement across 6 nodes: True", "Done."]),
        ("sharded_kvstore.py", ["Transaction", "Done."]),
        ("traced_run.py", ["Per-phase latency breakdown", "protocol epaxos", "Done."]),
    ],
)
def test_example_runs_clean(script: str, markers: list) -> None:
    result = _run_example(script)
    assert result.returncode == 0, (
        f"{script} exited {result.returncode}\n"
        f"stdout:\n{result.stdout}\nstderr:\n{result.stderr}"
    )
    for marker in markers:
        assert marker in result.stdout, (
            f"{script} output missing {marker!r}\nstdout:\n{result.stdout}"
        )


def test_runner_module_imports_once() -> None:
    """``python -m repro.bench.runner`` must not find the module already
    imported by its package (runpy then runs it twice and warns)."""
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.bench.runner", "--help"],
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert result.returncode == 0, result.stderr
