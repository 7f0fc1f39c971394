"""scripts/bench_pairs.py gives each side its own bytecode directory, outside both trees,
and lets the runs write bytecode there.

The script is loaded from its file and run with ``subprocess.run`` stubbed, so no git
command and no benchmark run is made: the stub answers ``git`` with a small archive and
each ``perfbench/run.py`` call with one correct result line, and records where it ran.
"""

import importlib.util
import io
import json
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


def test_sides_get_distinct_bytecode_prefixes_outside_the_trees(tmp_path, monkeypatch):
    bench = _load_script()
    root = tmp_path / "checkout"  # the working tree the change side runs from
    (root / "src" / "modorder" / "__pycache__").mkdir(parents=True)
    (root / "src" / "modorder" / "m.py").write_text("a = 1\n")
    shutil.copy(REPO / "BENCHMARK.json", root)
    runs = []

    def fake_run(cmd, cwd=None, env=None, **kwargs):
        if cmd[0] == "git":
            out = {"archive": _archive(), "rev-parse": b"0" * 40 + b"\n"}.get(cmd[1], b"")
            return subprocess.CompletedProcess(cmd, 0, stdout=out)
        assert env["PYTHONDONTWRITEBYTECODE"] == ""  # the prefix is written, and read back
        runs.append((Path(cwd), env["PYTHONPYCACHEPREFIX"]))
        line = {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {"pass_s": {"value": 1.0}}}
        return subprocess.CompletedProcess(cmd, 0, stdout=json.dumps(line) + "\n")

    monkeypatch.setattr(bench, "ROOT", root)
    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--rev", "HEAD",
                                      "--workload", "cli", "--label", "t"])
    assert bench.main() == 0

    assert len(runs) == 2 * bench.PAIRS + 2
    prefixes = dict(runs)
    assert len(prefixes) == 2 and root in prefixes and len(set(prefixes.values())) == 2
    assert all(prefixes[cwd] == prefix for cwd, prefix in runs)  # one prefix per side
    for prefix in map(Path, prefixes.values()):
        assert not any(prefix.is_relative_to(tree) for tree in (REPO, *prefixes)), prefix
    record = json.loads((root / "BENCH_t.json").read_text())
    assert record["PYTHONDONTWRITEBYTECODE"] == "1" and record["src_pycache_in_tree"] is True
    assert record["src_lines"] == {"parent": 2, "change": 1}
