"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run as ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import subprocess
import sys
import time

import modorder as mo

from oracles import brute_homs, klein_four_tables

MINUS_FAMILY_8 = ("minus-dual", "minus-idem", "minus-relaxed", "minus-image",
                  "jones", "mitsch", "gb", "dsum")
NINE = mo.EQUIVALENT_FAMILY


def _report(num, desc, failures):
    ok = not failures
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}")
    assert ok, f"criterion {num} ({desc}): {failures}"


def test_c01_paper_example_z6_over_z30():
    t0 = time.monotonic()
    ctx = mo.ModuleContext(mo.build_zm_over_zn(6, 30), "Z6/Z30")
    failures = []
    regular, bad = mo.is_regular_module(ctx)
    if not regular:
        failures.append(f"module not regular at {bad}")
    for tag in MINUS_FAMILY_8:
        if not mo.evaluate(ctx, tag, 2, 5).holds:
            failures.append(f"{tag}(2,5) does not hold")
    v = mo.direct_sum_le(ctx, 2, 5)
    if not (v.witness and v.witness.first == (0, 2, 4) and v.witness.second == (0, 3)):
        failures.append(f"dsum witness {v.witness}")
    if mo.cyclic_submodule(ctx.module, 5) != frozenset(range(6)):
        failures.append("5R is not all of M")
    elapsed = time.monotonic() - t0
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s")
    _report(1, "Z6 over Z30: 2 below 5 in all eight forms, exact direct-sum witness",
            failures)


def test_c02_paper_counterexample_z10():
    t0 = time.monotonic()
    ctx = mo.ModuleContext(mo.build_zm_over_zn(10, 10), "Z10/Z10")
    failures = []
    if not (ctx.l_S[2] == ctx.l_S[6] == {0, 5}):
        failures.append(f"l_S sets: {sorted(ctx.l_S[2])}, {sorted(ctx.l_S[6])}")
    if not (ctx.r_R[2] == ctx.r_R[6] == {0, 5}):
        failures.append(f"r_R sets: {sorted(ctx.r_R[2])}, {sorted(ctx.r_R[6])}")
    if ctx.module.ring.idempotents() != {0, 1, 5, 6}:
        failures.append("ring idempotents wrong")
    for tag in NINE:
        if mo.evaluate(ctx, tag, 2, 6).holds:
            failures.append(f"{tag}(2,6) unexpectedly holds")
    elapsed = time.monotonic() - t0
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s")
    _report(2, "Z10 model: equal annihilators yet 2 not below 6 in any form", failures)


def test_c03_equivalence_suite(corpus):
    t0 = time.monotonic()
    failures = []
    for name in ("Z6/Z6", "Z10/Z10", "Z6/Z30"):
        ctx = corpus[name]
        matrices = {tag: mo.relation_matrix(ctx, tag) for tag in NINE}
        for a, b in itertools.combinations(NINE, 2):
            r = mo.check_equivalence(matrices[a], matrices[b])
            if r.outcome != "pass":
                failures.append((name, a, b, r.counterexample))
    elapsed = time.monotonic() - t0
    if elapsed >= 60.0:
        failures.append(f"took {elapsed:.2f}s")
    _report(3, "nine relation matrices pairwise identical on the regular corpus",
            failures)


def test_c04_partial_order_axioms(corpus):
    failures = []
    star_expect = {"Z6/Z6": "pass", "Z10/Z10": "pass", "Z6/Z30": "pass",
                   "Z2xZ3": "pass", "M2(Z2)": "not-applicable"}
    for name, ctx in corpus.items():
        dom = mo.regular_set(ctx)
        r = mo.check_partial_order(mo.relation_matrix(ctx, "minus-dual"), dom)
        if r.outcome != "pass":
            failures.append((name, "minus-dual", r.counterexample))
        for tag in ("rstar", "lstar", "star"):
            reports = {rep.law: rep for rep in mo.member_laws(ctx)}
            rep = reports[f"partial-order/{tag}"]
            if rep.outcome != star_expect[name]:
                failures.append((name, tag, rep.outcome, rep.counterexample))
    _report(4, "minus and gated star orders satisfy the poset axioms exhaustively",
            failures)


def test_c05_unit_invariance(corpus):
    failures = []
    for name, ctx in corpus.items():
        r = mo.check_unit_invariance(ctx, mo.relation_matrix(ctx, "minus-dual"))
        if r.outcome != "pass":
            failures.append((name, r.counterexample))
    _report(5, "minus order invariant under all units of S and of R", failures)


def test_c06_annihilator_monotonicity(corpus, z10_over_z10):
    failures = []
    for name, ctx in corpus.items():
        r = mo.check_annihilator_monotone(ctx, mo.relation_matrix(ctx, "minus-dual"))
        if r.outcome != "pass":
            failures.append((name, r.counterexample))
    gaps = mo.find_converse_gap(z10_over_z10)
    if (2, 6) not in gaps:
        failures.append(f"(2,6) not among converse gaps {gaps[:5]}...")
    if not (z10_over_z10.l_S[6] <= z10_over_z10.l_S[2]
            and z10_over_z10.r_R[6] <= z10_over_z10.r_R[2]
            and not mo.minus_le_dual(z10_over_z10, 2, 6).holds):
        failures.append("(2,6) does not replay as a converse gap")
    _report(6, "annihilator monotonicity holds; converse gap (2,6) found on Z10",
            failures)


def test_c07_witness_constructions(corpus):
    failures = []
    for name, ctx in corpus.items():
        r = mo.check_witness_constructions(ctx, mo.relation_matrix(ctx, "minus-idem"))
        if r.outcome != "pass":
            failures.append((name, r.counterexample))
    _report(7, "idempotent witnesses, verified decompositions, equality chain",
            failures)


def test_c08_ring_module_bridge():
    failures = []
    for n in (6, 10, 30):
        ring = mo.build_zn(n)
        ctx = mo.ModuleContext(mo.build_ring_as_module(ring), f"Z{n}_R")
        minus = mo.relation_matrix(ctx, "minus-dual")
        for a in range(n):
            for b in range(n):
                h = mo.hartwig_minus_le(ring, a, b).holds
                w = mo.ring_minus_le_annih(ring, a, b).holds
                m = bool(minus.rows[a] >> b & 1)
                if not (h == w == m):
                    failures.append((n, a, b, h, w, m))
    _report(8, "module minus, Hartwig and annihilator ring orders coincide on R_R",
            failures)


def test_c09_oracle_cross_check():
    failures = []
    cases = [
        ("Z1/Z5", mo.build_zm_over_zn(1, 5)),
        ("Z2/Z2", mo.build_zm_over_zn(2, 2)),
        ("Z4/Z4", mo.build_zm_over_zn(4, 4)),
        ("Z6/Z6", mo.build_zm_over_zn(6, 6)),
        ("Z6/Z30", mo.build_zm_over_zn(6, 30)),
        ("Z2xZ3", mo.build_ring_as_module(
            mo.build_product(mo.build_zn(2), mo.build_zn(3)))),
    ]
    add, action = klein_four_tables()
    cases.append(("F2^2", mo.build_module_from_tables(mo.build_zn(2), add, action)))
    for name, module in cases:
        assert module.size <= 8
        expected = brute_homs(module.add, module.action,
                              module.add, module.action, module.size)
        got = mo.hom_group(module, module)
        if got != expected:
            failures.append((name, len(got), len(expected)))
    _report(9, "generator-based hom enumeration equals brute force on small modules",
            failures)


def test_c10_determinism(child_env):
    failures = []
    cmd = [sys.executable, "-m", "modorder.cli", "verify", "--corpus", "paper", "--json"]
    first = subprocess.run(cmd, capture_output=True, env=child_env)
    second = subprocess.run(cmd, capture_output=True, env=child_env)
    if first.returncode != 0 or second.returncode != 0:
        failures.append(f"exit codes {first.returncode}, {second.returncode}")
    if first.stdout != second.stdout:
        failures.append("stdout differs between runs")
    if not first.stdout.strip():
        failures.append("no output produced")
    _report(10, "verify --corpus paper --json is byte-identical across runs", failures)
