"""Checks of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q perfbench/test_bench.py

The determinism test makes two short traced runs of every workload, about
four minutes in all.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from tracing import Tracer, self_times  # noqa: E402

# Per-layer metrics that are counts of work done, so they repeat exactly.
COUNTERS = ("rings.builds", "modules.submodules", "homs.gens", "homs.candidates",
            "homs.found", "homs.yield", "orders.queries", "orders.holds_ratio",
            "laws.checks", "laws.reports.pass", "laws.reports.fail",
            "laws.reports.not-applicable", "hasse.covers")


def run(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def test_self_time_subtracts_children():
    spans = [[0, 0, None, "a", 0.0, 10.0, None], [0, 1, 0, "b", 2.0, 5.0, None],
             [0, 2, 1, "c", 3.0, 4.0, None], [0, 3, 0, "b", 6.0, 7.0, None]]
    assert self_times(spans) == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_install_wraps_imported_bindings_and_uninstall_restores():
    from modorder import hasse, homs, laws, modules, orders
    bindings = lambda: (orders.cyclic_submodule, hasse.relation_matrix,  # noqa: E731
                        hasse.check_partial_order, orders.RELATIONS["dsum"])
    before = bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert all(hasattr(fn, "__wrapped__") for fn in bindings())
        laws.run_suite([homs.ModuleContext(modules.build_zm_over_zn(6, 6), "Z6/Z6")])
    finally:
        tracer.uninstall()
    assert bindings() == before
    names = {rec[3] for rec in tracer.spans}
    assert {"laws.run_suite", "modules.cyclic_submodule", "homs.hom_group"} <= names
    assert tracer.queries > 0


@pytest.mark.parametrize("workload", ["cli", "suite-cyclic", "suite-products"])
def test_two_traced_runs_give_identical_counters(workload):
    results = []
    for _ in range(2):
        proc = run(workload, seed=7, trace=1)
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    for result in results:
        assert result["correct"] and result["failed"] == 0
    first, second = ({k: r["metrics"][k]["value"] for k in COUNTERS} for r in results)
    assert first == second


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = run("cli", seed=1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
