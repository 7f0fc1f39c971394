"""Paired benchmark runs: a committed revision (the parent) against the working tree.

    python3 scripts/bench_pairs.py --rev HEAD --workload suite-products \\
        --workload suite-cyclic --label pr17

The committed files of revision R are exported with ``git archive`` into a
temporary directory, and the working tree is copied next to it without its
``.git``, ``__pycache__`` directories and ``BENCH_*.json`` files, so the
repository's own state is never touched.  Pair i, for i = 1..10, runs the
unedited ``perfbench/run.py --seed 900+i --trace 0`` for the ``run_seconds`` of
``BENCHMARK.json`` once in each of the two fresh trees, each from its own root;
the parent runs first in odd pairs and the change in even ones.  The runs get
the caller's environment as it is, ``PYTHONDONTWRITEBYTECODE`` included, so that
they measure what a run of the benchmark in a fresh checkout measures: neither
side can read bytecode of its own package that the other lacks, and where
bytecode cannot be written each command compiles the package from source.
After the pairs of a workload, one traced pair (``--trace 1``, seed 901, parent
first) records each side's per-layer metrics.  Standard library only.

``BENCH_<label>.json``, written at the root of the working tree after every
pair, holds the line count of each side's ``src/modorder``, the value of
``PYTHONDONTWRITEBYTECODE``, and for each workload each pair's end-to-end
metrics, ``correct`` flags and the per-pass speed factors that the run prints
(the machine's calibration: reference seconds per measured second) and, per
metric of ``BENCHMARK.json``, each side's median and quartiles, the
change/parent ratio of the medians, the pairs the change wins (ties count for
neither side), the parent's IQR and whether the medians differ by more than
it, and under ``trace`` the traced pair's runs.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIRST_SEED = 901
PAIRS = 10  # the fewest that can show a gain in 9 of 10


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export(rev: str, into: Path) -> None:
    """The committed files of ``rev``, unpacked under ``into``."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(into, filter="data")


def run(root: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One ``perfbench/run.py`` run from ``root``: its JSON result line, or a result with
    ``correct`` false and the exit code when it gave none."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=root, capture_output=True, text=True,
                          timeout=10 * seconds + 600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "exit": proc.returncode, "metrics": {}}
    factors = re.search(r"\bspeed_factors=(\[[^\]]*\])", proc.stdout)
    return {"correct": result["correct"] and proc.returncode == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            **({"speed_factors": json.loads(factors[1])} if factors else {})}


def src_lines(root: Path) -> int:
    """The lines of ``src/modorder/*.py`` under ``root``."""
    return sum(len(path.read_bytes().splitlines())
               for path in (root / "src" / "modorder").glob("*.py"))


def spread(values: list[float]) -> dict:
    """Median and quartiles (the inclusive method, so that 2 or more values do)."""
    if len(values) < 2:
        return {"median": values[0] if values else None, "q1": None, "q3": None}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summary(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's spread, the change/parent ratio of the medians, the wins
    and the parent's IQR, over the pairs in which both runs were correct."""
    good = [p for p in pairs if p["parent"]["correct"] and p["change"]["correct"]]
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        both = [(p["parent"]["metrics"][name], p["change"]["metrics"][name]) for p in good
                if name in p["parent"]["metrics"] and name in p["change"]["metrics"]]
        if not both:
            continue
        parent, change = spread([a for a, _ in both]), spread([b for _, b in both])
        iqr = None if parent["q1"] is None else parent["q3"] - parent["q1"]
        diff = abs(change["median"] - parent["median"])
        out[name] = {
            "unit": metric["unit"], "better": metric["better"], "pairs": len(both),
            "parent": parent, "change": change,
            "ratio": change["median"] / parent["median"] if parent["median"] else None,
            "change_wins": sum(b < a if lower else b > a for a, b in both),
            "parent_wins": sum(a < b if lower else a > b for a, b in both),
            "parent_iqr": iqr,
            "median_diff_exceeds_parent_iqr": iqr is not None and diff > iqr,
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--rev", required=True, help="the parent revision")
    parser.add_argument("--workload", action="append", required=True,
                        help="a perfbench workload (repeat for several)")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]
    out_path = ROOT / f"BENCH_{args.label}.json"
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        sides = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
        export(args.rev, sides["parent"])
        shutil.copytree(ROOT, sides["change"],
                        ignore=shutil.ignore_patterns(".git", "__pycache__", "BENCH_*.json"))
        record = {
            "rev": git("rev-parse", args.rev).decode().strip(),
            "change": git("rev-parse", "HEAD").decode().strip()
                      + (" (with uncommitted changes)" if git("status", "--porcelain", "src")
                         else ""),
            "src_lines": {side: src_lines(root) for side, root in sides.items()},
            "seconds": seconds, "first_seed": FIRST_SEED,
            "python": platform.python_version(), "machine": platform.machine(),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "workloads": {},
        }
        for workload in args.workload:
            pairs = []
            entry = record["workloads"][workload] = {"pairs": pairs, "summary": {}}
            for i in range(PAIRS):
                seed = FIRST_SEED + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run(sides[side], workload, seed, seconds)
                pairs.append(pair)
                entry["summary"] = summary(pairs, metrics)
                out_path.write_text(json.dumps(record, indent=1) + "\n")
                print(f"{workload} pair {i + 1}/{PAIRS} seed {seed}: "
                      + "  ".join(f"{name} {pair['parent']['metrics'].get(name, float('nan')):.4g}"
                                  f" -> {pair['change']['metrics'].get(name, float('nan')):.4g}"
                                  for name in ("pass_s", "op_p50_ms")), flush=True)
            entry["trace"] = {"seed": FIRST_SEED, "first": "parent"}
            for side, root in sides.items():
                entry["trace"][side] = run(root, workload, FIRST_SEED, seconds, trace=1)
            out_path.write_text(json.dumps(record, indent=1) + "\n")
            print(f"{workload} traced pair seed {FIRST_SEED}: correct "
                  f"{entry['trace']['parent']['correct']} -> {entry['trace']['change']['correct']}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
