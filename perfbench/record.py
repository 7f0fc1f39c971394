"""Write the benchmark's committed data from the current modorder.

    python3 perfbench/record.py costs     # time every pool member's suite
    python3 perfbench/record.py strata    # cut the strata from those costs
    python3 perfbench/record.py digests   # write expected.json

``costs`` and ``strata`` fix which members each suite draw can pick; they
ran once, when the benchmark was defined, and both the costs and the strata
are kept in workloads.json.  ``digests`` records the answers (law records,
relation matrices with witnesses, CLI stdout and exit codes) that every
benchmark run is checked against; re-running it is right only after a
change that is meant to alter an answer.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

from workloads import (BENCH, CLI_MIX, build_member, cli_answer, draw, homs,
                       law_digest, load_json, matrix_check, prime_interpreter, run_cli,
                       run_member, write_spec_file)
from worker import CAL_REF_S, calibration_s

REFERENCE_SEED = 1
PRODUCT_LIMIT = 64
CANDIDATE_BUDGET = 400_000
COST_REPEATS = 3

WHY = {
    "cli": "What a desk user pays per command: interpreter start-up, building and "
           "validating the ring and module, and one cold search per invocation.",
    "suite-cyclic": "One generator, so hom enumeration is cheap and the dsum/Submodule "
                    "closure path, the relation matrices and the law checks dominate.",
    "suite-products": "Two to four generators, so hom enumeration over |N|^|G| "
                      "candidates is the largest layer and the relation matrices are small.",
}

# Members in every draw.  Cyclic: the three cheapest with m >= 40 (Z42/Z42
# is squarefree, so the star orders and the ring bridge always run).
# Products: Z2^4, the 4-generator ring within the pass budget (Z2xZ2xZ2xZ3
# alone would take half a pass), and the noncommutative M2(Z2).
CYCLIC_FIXED = ("Z40/Z40", "Z42/Z42", "Z44/Z44")
PRODUCT_FIXED = ("RR:Z2xZ2xZ2xZ2", "RR:M2(2)")
# Cost caps (seconds) on the drawn members, which keep a pass under about seven
# seconds; members above them are left out and listed with their cost.
CYCLIC_CAP = 0.4
PRODUCT_CAPS = {3: 0.5, 2: 0.3}
# Strata above FLOOR_S hold members within STRATUM_RATIO of each other's
# cost; cheaper members go into strata of FLOOR_SIZE.
STRATUM_RATIO = 1.1
FLOOR_S = 0.01
FLOOR_SIZE = 10


def cost_strata(members, cost) -> list[list[str]]:
    """Consecutive-cost strata: narrow where members are expensive."""
    ranked = sorted(members, key=cost.get, reverse=True)
    strata, current = [], []
    for m in ranked:
        if cost[m] < FLOOR_S:
            break
        if current and cost[m] < cost[current[0]] / STRATUM_RATIO:
            strata.append(current)
            current = []
        current.append(m)
    if current:
        strata.append(current)
    cheap = [m for m in ranked if cost[m] < FLOOR_S]
    strata += [cheap[i:i + FLOOR_SIZE] for i in range(0, len(cheap), FLOOR_SIZE)]
    return strata


def cyclic_pool() -> list[str]:
    return [f"Z{m}/Z{n}" for n in range(1, PRODUCT_LIMIT + 1)
            for m in range(1, n + 1) if n % m == 0]


def product_pool() -> list[str]:
    """Every Z_a x Z_b (x ...) with 2 <= a <= b <= ... and at most 64 elements."""
    pool = []

    def extend(factors, size):
        if len(factors) >= 2:
            pool.append("RR:" + "x".join(f"Z{k}" for k in factors))
        for k in range(factors[-1] if factors else 2, PRODUCT_LIMIT // size + 1):
            extend(factors + [k], size * k)

    extend([], 1)
    return pool + ["RR:M2(2)"]


def candidates(member: str) -> tuple[int, int]:
    """(greedy generator count, |R|^gens) for the R_R member."""
    module = build_member(member)
    gens = len(homs.generating_set(module))
    return gens, module.size ** gens


def member_cost(member: str) -> float:
    """One suite run of the member, in reference seconds (see worker.py)."""
    before = calibration_s()
    t0 = time.perf_counter()
    run_member(member)
    elapsed = time.perf_counter() - t0
    return elapsed * 2 * CAL_REF_S / (before + calibration_s())


def median_costs(members, cap) -> dict[str, float]:
    """Median of COST_REPEATS interleaved runs for members whose first run
    is within twice ``cap``; one run for the rest, which are left out anyway."""
    runs = [{m: member_cost(m) for m in members}]
    again = [m for m in members if runs[0][m] <= 2 * cap]
    runs += [{m: member_cost(m) for m in again} for _ in range(COST_REPEATS - 1)]
    return {m: round(statistics.median(r[m] for r in runs if m in r), 4) for m in members}


def record_costs():
    data = {"reference_seed": REFERENCE_SEED,
            "cli": {"why": WHY["cli"], "commands": [c for c, _ in CLI_MIX]},
            "suite-cyclic": {"why": WHY["suite-cyclic"],
                             "cost_s": median_costs(cyclic_pool(), CYCLIC_CAP)},
            "suite-products": {"why": WHY["suite-products"], "generators": {},
                               "candidates": {}, "cost_s": {}}}
    products = data["suite-products"]
    for m in product_pool():
        products["generators"][m], products["candidates"][m] = candidates(m)
    feasible = [m for m, c in products["candidates"].items() if c <= CANDIDATE_BUDGET]
    products["cost_s"] = median_costs(feasible, max(PRODUCT_CAPS.values()))
    write("workloads.json", data)


def record_strata():
    data = load_json("workloads.json")
    cyclic, products = data["suite-cyclic"], data["suite-products"]
    cost = cyclic["cost_s"]
    small = [m for m, c in cost.items()
             if int(m.split("/")[0][1:]) < 40 and c <= CYCLIC_CAP]
    cyclic["strata"] = [[m] for m in CYCLIC_FIXED] + cost_strata(small, cost)
    cyclic["left_out"] = left_out(cost, cyclic["strata"])

    cost, gens = products["cost_s"], products["generators"]
    products["strata"] = [[m] for m in PRODUCT_FIXED]
    for g, cap in PRODUCT_CAPS.items():
        pool = [m for m, c in cost.items()
                if gens[m] == g and c <= cap and m not in PRODUCT_FIXED]
        products["strata"] += cost_strata(pool, cost)
    cands = products["candidates"]
    products["left_out"] = left_out(cost, products["strata"]) + [
        {"member": m, "generators": gens[m], "candidates": cands[m],
         "reason": "a pass could not finish: unbounded hom enumeration"}
        for m in sorted(cands, key=cands.get) if m not in cost]
    write("workloads.json", data)
    for name in ("suite-cyclic", "suite-products"):
        data[name]["drawn_with_reference_seed"] = draw(name, REFERENCE_SEED)
    write("workloads.json", data)


def left_out(cost, strata):
    drawn = {m for stratum in strata for m in stratum}
    return [{"member": m, "cost_s": c, "reason": "suite cost above the pass budget"}
            for m, c in sorted(cost.items(), key=lambda kv: kv[1]) if m not in drawn]


def record_digests():
    write_spec_file()
    prime_interpreter()
    expected = {"cli": {}, "members": {}}
    for cmd, argv in CLI_MIX:
        expected["cli"][cmd] = cli_answer(*run_cli(argv))
    workloads = load_json("workloads.json")
    members = sorted({m for name in ("suite-cyclic", "suite-products")
                      for stratum in workloads[name]["strata"] for m in stratum})
    for member in members:
        ctx, reports = run_member(member)
        if any(r.outcome == "fail" for r in reports):
            raise SystemExit(f"{member}: a law fails; not recording")
        digest, bad = matrix_check(ctx)
        if bad:
            raise SystemExit(f"{member}: {bad} witnesses do not replay; not recording")
        expected["members"][member] = {"laws": law_digest(reports), "matrices": digest}
        print(member, flush=True)
    write("expected.json", expected)


def write(name, data):
    with open(BENCH / name, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    steps = {"costs": record_costs, "strata": record_strata, "digests": record_digests}
    if len(sys.argv) != 2 or sys.argv[1] not in steps:
        raise SystemExit(__doc__)
    steps[sys.argv[1]]()
