"""One run of one workload, in its own process; ``run.py`` starts it.

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer ones; both print the JSON result as the last stdout line.

Every time is scaled to a reference CPU speed: a shared host can change
speed by 40% from one minute to the next (seen on a 2-vCPU x86-64 VM), so a
fixed pure-Python loop (``calibration_s``) is timed between operations, and
each time is multiplied by CAL_REF_S / (the loop's time around it).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

import workloads as wl
from tracing import Tracer, missing_spans, resolve_hom_info, self_times

SETUPS = 9           # set-up repetitions; setup_s is their median
MIN_OPS = 100        # a p90 needs at least ten samples beyond it
PROBE_SAMPLES = 5    # interpreter start-ups per cli.python_ms / cli.import_ms
CAL_REF_S = 0.004    # calibration loop time that defines the reference speed

RING_BUILDERS = ("rings.build_zn", "rings.build_product", "rings.build_matrix_ring",
                 "rings.build_ring_from_tables", "rings.ring_from_spec")
MODULE_BUILDERS = ("modules.build_zm_over_zn", "modules.build_ring_as_module",
                   "modules.build_module_from_tables", "modules.module_from_spec")
CHECKS = ("partial_order", "equivalence", "unit_invariance", "annihilator_monotone",
          "subset_cyclic", "witness_constructions", "ring_bridge")
OUTCOMES = ("pass", "fail", "not-applicable")


class Cli:
    """Closed loop over the command mix, one subprocess per command."""

    name = "cli"
    in_process = False

    def setup(self, seed):
        wl.write_spec_file()
        wl.prime_interpreter()
        self.seed = seed
        self.expected = wl.load_json("expected.json")["cli"]

    def items(self, i):
        order = list(wl.CLI_MIX)
        random.Random(f"cli:{self.seed}:{i}").shuffle(order)
        return order

    def run_op(self, item, tracer):
        cmd, argv = item
        spans_path = None if tracer is None else wl.OUT / f"spans-{os.getpid()}.json"
        t0 = time.perf_counter()
        code, stdout = wl.run_cli(argv, spans_path)
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            with open(spans_path) as fh:
                child = json.load(fh)
            os.remove(spans_path)
            offset = len(tracer.spans)
            for rec in child["spans"]:
                rec[0], rec[1] = cmd, rec[1] + offset
                rec[2] = None if rec[2] is None else rec[2] + offset
                tracer.spans.append(rec)
            tracer.queries += child["queries"]
            tracer.holds += child["holds"]
        return elapsed, wl.cli_answer(code, stdout) == self.expected[cmd]

    def check_traced(self):
        """Replay the witness of every `order` command that holds."""
        return wl.replay_cli_orders()

    def describe(self):
        return f"commands: {' '.join(cmd for cmd, _ in wl.CLI_MIX)}"


class Suite:
    """Closed loop over a seeded draw of members; each op is one member's suite."""

    in_process = True

    def __init__(self, name):
        self.name = name

    def setup(self, seed):
        wl.prime_interpreter()
        self.seed = seed
        self.expected = wl.load_json("expected.json")["members"]
        self.members = wl.draw(self.name, seed)
        self.contexts = {}

    def items(self, i):
        order = list(self.members)
        random.Random(f"{self.name}:{self.seed}:{i}").shuffle(order)
        return order

    def run_op(self, member, tracer):
        if tracer is not None:
            tracer.trace_id = member
        t0 = time.perf_counter()
        ctx, reports = wl.run_member(member)
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            self.contexts[member] = ctx
        ok = (wl.law_digest(reports) == self.expected[member]["laws"]
              and all(r.outcome != "fail" for r in reports))
        return elapsed, ok

    def check_traced(self):
        """Matrix digests and witness replay, once per drawn member."""
        checked, failed = len(self.contexts), 0
        for member, ctx in self.contexts.items():
            digest, bad = wl.matrix_check(ctx)
            if digest != self.expected[member]["matrices"] or bad:
                print(f"matrix check failed: {member} ({bad} replays failed)",
                      file=sys.stderr)
                failed += 1
        self.contexts.clear()
        return checked, failed

    def describe(self):
        return f"drawn: {' '.join(self.members)}"


WORKLOADS = {"cli": Cli, "suite-cyclic": lambda: Suite("suite-cyclic"),
             "suite-products": lambda: Suite("suite-products")}


def calibration_s() -> float:
    """Time a fixed loop of table lookups and frozensets, like modorder's own."""
    n = 64
    t0 = time.perf_counter()
    add = [[(a + b) % n for b in range(n)] for a in range(n)]
    mul = [[a * b % n for b in range(n)] for a in range(n)]
    acc = 0
    for _ in range(8):
        for a in range(n):
            row = mul[a]
            for b in range(n):
                acc += add[row[b]][add[a][b]]
            acc += len(frozenset(row))
    return time.perf_counter() - t0


def speed_factor(calibrations) -> float:
    return CAL_REF_S / statistics.median(calibrations)


def run_pass(workload, i, tracer=None):
    """Every op of pass ``i``; returns (scaled latencies, failures, speed factor).

    Each latency is scaled by the calibrations taken just before and just
    after its op, so a change of machine speed within a pass is followed.
    """
    latencies, calibrations, failed = [], [calibration_s()], 0
    if tracer is not None and workload.in_process:
        tracer.install()
    try:
        for item in workload.items(i):
            try:
                elapsed, ok = workload.run_op(item, tracer)
            except Exception:
                traceback.print_exc()
                elapsed, ok = 0.0, False
            calibrations.append(calibration_s())
            latencies.append(elapsed * 2 * CAL_REF_S / (calibrations[-2] + calibrations[-1]))
            failed += not ok
    finally:
        if tracer is not None and workload.in_process:
            tracer.uninstall()
    return latencies, failed, speed_factor(calibrations)


def layer_metrics(tracer) -> dict[str, float]:
    """Per-layer self times and counters of one traced pass."""
    spans = tracer.spans
    resolve_hom_info(spans)
    own = self_times(spans)
    calls = Counter(rec[3] for rec in spans)
    homs_info = [rec[6] for rec in spans if rec[3] == "homs.hom_group"]
    candidates = sum(n ** g for g, n, _ in homs_info)
    found = sum(f for _, _, f in homs_info)
    reports = [r for rec in spans if rec[3] == "laws.run_suite" for r in rec[6]]
    metrics = {
        "rings.build_s": sum(own.get(n, 0.0) for n in RING_BUILDERS),
        "rings.builds": sum(calls[n] for n in RING_BUILDERS),
        "modules.build_s": sum(own.get(n, 0.0) for n in MODULE_BUILDERS),
        "modules.submodule_s": own.get("modules.cyclic_submodule", 0.0),
        "modules.submodules": calls["modules.cyclic_submodule"],
        "homs.hom_group_s": own.get("homs.hom_group", 0.0),
        "homs.endo_ring_self_s": own.get("homs.endo_ring", 0.0),
        "homs.gens": sum(g for g, _, _ in homs_info),
        "homs.candidates": candidates,
        "homs.found": found,
        "homs.yield": found / candidates if candidates else 0.0,
        "orders.regular_s": own.get("orders.is_regular_module", 0.0)
        + own.get("orders.regular_set", 0.0),
        "orders.queries": tracer.queries,
        "orders.holds_ratio": tracer.holds / tracer.queries if tracer.queries else 0.0,
        "laws.checks": sum(checks for _, checks in reports),
        "hasse.build_poset_s": own.get("hasse.build_poset", 0.0),
        "hasse.reduction_s": own.get("hasse.transitive_reduction", 0.0),
        "hasse.covers": sum(rec[6] for rec in spans if rec[3] == "hasse.transitive_reduction"),
    }
    for tag in wl.TAGS:
        metrics[f"orders.matrix_s.{tag}"] = own.get(f"laws.relation_matrix:{tag}", 0.0)
    for check in CHECKS:
        metrics[f"laws.check_s.{check}"] = own.get(f"laws.check_{check}", 0.0)
    for outcome in OUTCOMES:
        metrics[f"laws.reports.{outcome}"] = sum(o == outcome for o, _ in reports)
    for rec in spans:
        if rec[3] == "cli.main":
            metrics[f"cli.main_ms.{rec[0]}"] = (rec[5] - rec[4]) * 1000
    return metrics


def interpreter_ms(code: str) -> float:
    samples, calibrations = [], []
    for _ in range(PROBE_SAMPLES):
        calibrations.append(calibration_s())
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=wl.ROOT, env=wl.ENV, check=True)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1000 * speed_factor(calibrations)


def scaled(metrics, factor):
    """Scale the time-valued layer metrics (names ending _s or _ms)."""
    return {k: v * factor if k.endswith(("_s", "_ms")) else v for k, v in metrics.items()}


def percentile(values, p):
    """Harrell-Davis estimate of the p-quantile (Biometrika 69, 1982).

    A Beta-weighted mean of all order statistics: steadier than the one or
    two order statistics of the usual estimate when a few members with
    distinct costs make up the tail.
    """
    x = sorted(values)
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(t):
        return math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta)

    steps = 8  # midpoint rule over each interval ((i-1)/n, i/n)
    weights = [sum(density((i + (j + 0.5) / steps) / n) for j in range(steps))
               for i in range(n)]
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


def measure(workload, seconds):
    """End-to-end run: passes until ``seconds`` have elapsed and MIN_OPS ops ran."""
    latencies, pass_times, factors, failed = [], [], [], 0
    per_item = {}
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(latencies) < MIN_OPS:
        i = len(pass_times)
        lat, f, factor = run_pass(workload, i)
        factors.append(round(factor, 3))
        for item, elapsed in zip(workload.items(i), lat):
            per_item.setdefault(str(item), []).append(elapsed)
        latencies += lat
        pass_times.append(sum(lat))
        failed += f
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    metrics = {
        # One pass at each operation's median latency: a slow spell on a
        # shared machine then moves single samples, not the pass.
        "pass_s": sum(statistics.median(v) for v in per_item.values()),
        "op_p50_ms": percentile(latencies, 0.5) * 1000,
        "op_p90_ms": percentile(latencies, 0.9) * 1000,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    info = {"passes": len(pass_times), "ops": len(latencies),
            "pass_times_s": [round(t, 3) for t in pass_times], "speed_factors": factors}
    return metrics, len(latencies), failed, info


def measure_traced(workload, seconds):
    """Alternate untraced and traced passes, then check answers and probe the CLI."""
    untraced, traced, layers = [], [], []
    attempted = failed = 0
    seen = set()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not traced:
        tracer = Tracer() if len(untraced) > len(traced) else None
        lat, f, factor = run_pass(workload, len(untraced) + len(traced), tracer)
        attempted += len(lat)
        failed += f
        if tracer is None:
            untraced.append(sum(lat))
        else:
            traced.append(sum(lat))
            layers.append(scaled(layer_metrics(tracer), factor))
            seen |= {rec[3] for rec in tracer.spans}
    checked, bad = workload.check_traced()
    attempted += checked
    failed += bad
    metrics = {key: statistics.median(m[key] for m in layers if key in m)
               for key in {k for m in layers for k in m}}
    if workload.in_process:
        # The suites never enter the CLI, so one traced pass of the cli mix
        # gives the cli.* and hasse.* layers a measured value here too.
        probe = Tracer()
        cli = Cli()
        cli.setup(0)
        lat, f, factor = run_pass(cli, 0, probe)
        attempted += len(lat)
        failed += f
        for key, value in scaled(layer_metrics(probe), factor).items():
            if key.startswith(("cli.", "hasse.")):
                metrics[key] = value
    metrics["cli.python_ms"] = interpreter_ms("pass")
    metrics["cli.import_ms"] = interpreter_ms("import modorder.cli") - metrics["cli.python_ms"]
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced) - 1
    missing = missing_spans(workload.name, seen)
    info = {"untraced_passes": len(untraced), "traced_passes": len(traced),
            "missing_spans": missing}
    return metrics, attempted, failed, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(wl.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    workload = WORKLOADS[args.workload]()
    setup_times, calibrations = [], [calibration_s()]
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        workload.setup(args.seed)
        elapsed = time.perf_counter() - t0
        calibrations.append(calibration_s())
        setup_times.append(elapsed * 2 * CAL_REF_S / (calibrations[-2] + calibrations[-1]))
    print(f"{args.workload} seed {args.seed}: {workload.describe()}")

    if args.trace:
        values, attempted, failed, info = measure_traced(workload, args.seconds)
        wanted = spec["per_layer"]
    else:
        values, attempted, failed, info = measure(workload, args.seconds)
        values["setup_s"] = statistics.median(setup_times)
        wanted = spec["end_to_end"]
    missing = info.get("missing_spans", [])
    if missing:
        print(f"no span recorded for: {', '.join(missing)}", file=sys.stderr)
    unmeasured = [m["name"] for m in wanted if m["name"] not in values]
    if unmeasured:
        print(f"not measured: {', '.join(unmeasured)}", file=sys.stderr)
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
        print(f"{m['name']:<40} {metrics[m['name']]['value']:>16.6f} {m['unit']}")
    print(f"{'fail_ratio':<40} {failed / max(attempted, 1):>16.6f} ratio")
    print("  ".join(f"{k}={v}" for k, v in info.items()))
    correct = failed == 0 and not missing and not unmeasured
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
