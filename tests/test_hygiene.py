"""Repository hygiene: the checkout tracks no file that .gitignore excludes,
such as build output, egg-info metadata or saved test logs, the
committed benchmark records are whole and small, no module of cflat
writes private state into another object, and importing the CLI loads
no class-generation machinery."""

import ast
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)


def test_no_ignored_file_is_tracked():
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    top = _git("rev-parse", "--show-toplevel")
    if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
        pytest.skip("not a git checkout of this repository")
    listed = _git("ls-files", "-ci", "--exclude-standard")
    assert listed.returncode == 0, listed.stderr
    assert listed.stdout == ""


def test_bench_records_are_whole_and_small():
    """Each committed BENCH_*.json names the parent and change commits
    and holds, per side, run records that passed every check (failed = 0)
    and carry the metrics BENCHMARK.json declares: the end-to-end ones on
    a timed run, the per-layer ones on a traced run.  No record keeps its
    per-query latencies."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    per_layer = {m["name"] for m in declared["per_layer"]}
    for path in sorted(ROOT.glob("BENCH_*.json")):
        record = json.loads(path.read_text())
        for key in ("parent_commit", "change_commit"):
            assert re.fullmatch("[0-9a-f]{40}", record.get(key, "")), (path.name, key)
        for side in ("parent", "change"):
            runs = record[side]
            assert runs, (path.name, side)
            for run in runs:
                assert "latencies_ms" not in run, (path.name, side)
                assert run["failed"] == 0, (path.name, side, run["workload"], run["seed"])
                assert set(run["metrics"]) == (per_layer if run["trace"] else end_to_end), (path.name, side)


def test_frozen_objects_are_written_only_by_their_own_methods():
    """Every object.__setattr__ call in src/cflat writes to ``self``: a
    frozen object's fields are set by its own class, and a fast path
    hands its parts to a constructor (such as ``IntMatrix._of`` or
    ``BieberbachGroupSpec._of``) instead of writing into the result."""
    found = []
    for path in sorted((ROOT / "src" / "cflat").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__setattr__":
                if not node.args or ast.unparse(node.args[0]) != "self":
                    found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert found == []


def test_cli_import_loads_no_dataclass_machinery():
    """A fresh ``import cflat.cli`` leaves ``dataclasses`` and the
    ``inspect`` module it pulls in unloaded: every CLI call pays the
    import, and cflat's records are built without them."""
    script = "import sys, cflat.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
