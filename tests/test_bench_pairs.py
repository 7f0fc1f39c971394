"""scripts/bench_pairs.py runs each side from its own fresh tree, in the caller's
environment, so that it measures what a run of the benchmark in a fresh checkout does.

The script is loaded from its file and run with ``subprocess.run`` stubbed, so no git
command and no benchmark run is made: the stub answers ``git`` with a small archive and
each ``perfbench/run.py`` call with one correct result line, and records where it ran and
what that tree held.
"""

import importlib.util
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "bench_pairs.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _archive() -> bytes:
    """A tar holding one two-line ``src/modorder`` file, as ``git archive`` gives it."""
    buf, data = io.BytesIO(), b"a = 1\nb = 2\n"
    with tarfile.open(fileobj=buf, mode="w") as tar:
        info = tarfile.TarInfo("src/modorder/m.py")
        info.size = len(data)
        tar.addfile(info, io.BytesIO(data))
    return buf.getvalue()


def _files(tree: Path) -> set[str]:
    return {path.relative_to(tree).as_posix() for path in tree.rglob("*") if path.is_file()}


def test_sides_run_from_fresh_trees_in_the_callers_environment(tmp_path, monkeypatch):
    bench = _load_script()
    root = tmp_path / "checkout"  # the working tree the change side is copied from
    for name, text in {"src/modorder/m.py": "a = 1\n", "src/modorder/__pycache__/m.pyc": "",
                       ".git/HEAD": "", "BENCH_old.json": "{}", "perfbench/run.py": ""}.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    shutil.copy(REPO / "BENCHMARK.json", root)
    runs = []

    def fake_run(cmd, cwd=None, env=None, **kwargs):
        if cmd[0] == "git":
            out = {"archive": _archive(), "rev-parse": b"0" * 40 + b"\n"}.get(cmd[1], b"")
            return subprocess.CompletedProcess(cmd, 0, stdout=out)
        runs.append((Path(cwd), env, _files(Path(cwd))))
        line = {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {"pass_s": {"value": 1.0}}}
        return subprocess.CompletedProcess(cmd, 0, stdout=json.dumps(line) + "\n")

    monkeypatch.setattr(bench, "ROOT", root)
    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.delenv("PYTHONPYCACHEPREFIX", raising=False)
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--rev", "HEAD",
                                      "--workload", "cli", "--label", "t"])
    assert bench.main() == 0

    assert len(runs) == 2 * bench.PAIRS + 2
    assert all(env is None for _, env, _ in runs)  # the caller's environment, unchanged
    assert "PYTHONPYCACHEPREFIX" not in os.environ
    trees = {cwd: files for cwd, _, files in runs}
    assert len(trees) == 2 and all(files == trees[cwd] for cwd, _, files in runs)
    for tree in trees:
        assert not any(tree.is_relative_to(other) for other in (REPO, root)), tree
    assert sorted(trees.values(), key=len) == [
        {"src/modorder/m.py"},  # the archive
        {"src/modorder/m.py", "BENCHMARK.json", "perfbench/run.py"}]  # the copy
    record = json.loads((root / "BENCH_t.json").read_text())
    assert record["PYTHONDONTWRITEBYTECODE"] == "1" and "src_pycache_in_tree" not in record
    assert record["src_lines"] == {"parent": 2, "change": 1}
