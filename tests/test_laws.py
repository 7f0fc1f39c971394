import functools
import gc
import weakref
from operator import or_

import modorder as mo
import pytest

from modorder import laws, orders
from modorder.homs import smash
from modorder.laws import RelationMatrix
from modorder.verdicts import Relation, bits

from oracles import (ORACLE_RINGS, definitional_firsts, definitional_parts, definitional_rows,
                     module_tables, witness_chain_scan)


@functools.cache
def _minus_matrix(ctx):
    return mo.relation_matrix(ctx, "minus-dual")


# -- check_partial_order ---------------------------------------------------------


def test_partial_order_passes_on_regular_members(corpus):
    for ctx in corpus.values():
        report = mo.check_partial_order(_minus_matrix(ctx), mo.regular_set(ctx))
        assert report.outcome == "pass", (ctx.name, report.counterexample)


@pytest.mark.parametrize("tag, carrier", [("minus-dual", "Z6/Z6"), ("hartwig", "Z6")])
@pytest.mark.parametrize("x, y", [(-1, 5), (6, 0), (0, -1), (0, 6)])
def test_matrix_verdict_refuses_an_element_out_of_range(z6_over_z6, tag, carrier, x, y):
    """As a relation's own call does: -1 is not read as the last element, nor 6 as an
    IndexError or a negative shift."""
    matrix, bad = mo.relation_matrix(z6_over_z6, tag), x if y in range(6) else y
    with pytest.raises(ValueError, match=rf"^element {bad} out of range for {carrier}$"):
        matrix.verdict(x, y)


def test_partial_order_fault_injection(z6_over_z6):
    base = _minus_matrix(z6_over_z6)
    dom = mo.regular_set(z6_over_z6)

    broken = list(base.rows)
    broken[2] &= ~(1 << 2)
    r = mo.check_partial_order(RelationMatrix(base.member, base.relation, 6, broken), dom)
    assert r.outcome == "fail" and r.counterexample == {"axiom": "reflexivity", "element": 2}

    broken = list(base.rows)
    broken[5] |= 1 << 2  # 2 <= 5 already holds, so this breaks antisymmetry
    r = mo.check_partial_order(RelationMatrix(base.member, base.relation, 6, broken), dom)
    assert r.outcome == "fail" and r.counterexample["axiom"] == "antisymmetry"

    broken = list(base.rows)
    broken[0] &= ~(1 << 2 | 1 << 5)  # 0 <= 3 <= ... chain still forces closures; kill one edge
    r = mo.check_partial_order(RelationMatrix(base.member, base.relation, 6, broken), dom)
    assert r.outcome == "fail" and r.counterexample["axiom"] == "transitivity"
    # the named triple replays as a genuine violation of the corrupted matrix
    i, j, k = r.counterexample["triple"]
    assert broken[i] >> j & 1 and broken[j] >> k & 1 and not broken[i] >> k & 1


# -- check_equivalence -------------------------------------------------------------


def test_equivalence_pass_and_witness_dump(z6_over_z30):
    a = _minus_matrix(z6_over_z30)
    b = mo.relation_matrix(z6_over_z30, "jones")
    r = mo.check_equivalence(a, b)
    assert r.outcome == "pass" and r.checks == 36


def test_equivalence_expected_fail_fixture(z6_over_z6):
    """Cyclic-submodule inclusion is strictly weaker than the minus order."""
    ctx = z6_over_z6
    n = ctx.module.size
    rows = [sum(mo.subset_cyclic(ctx, i, j) << j for j in range(n)) for i in range(n)]
    subset_as_relation = RelationMatrix(ctx.name, "subset", n, rows)
    r = mo.check_equivalence(_minus_matrix(ctx), subset_as_relation)
    assert r.outcome == "fail"
    i, j = r.counterexample["pair"]
    assert (rows[i] ^ _minus_matrix(ctx).rows[i]) >> j & 1
    assert (i, j) == (1, 5)  # 1R = 5R = M, yet 1 is not below 5


def test_equivalence_domain_restriction(z4_over_z4):
    reg = mo.regular_set(z4_over_z4)
    mask = sum(1 << m for m in reg)
    r = mo.check_equivalence(_minus_matrix(z4_over_z4),
                             mo.relation_matrix(z4_over_z4, "dsum"), (mask, mask))
    assert r.outcome == "pass" and r.checks == len(reg) ** 2


def test_equivalence_refuses_matrices_of_different_sizes(z6_over_z6, z10_over_z10):
    with pytest.raises(ValueError, match="^matrices over different modules$"):
        mo.check_equivalence(_minus_matrix(z6_over_z6), _minus_matrix(z10_over_z10))


# -- unit invariance, monotonicity, converse gaps ----------------------------------


def test_unit_invariance(corpus):
    for ctx in corpus.values():
        r = mo.check_unit_invariance(ctx, _minus_matrix(ctx))
        assert r.outcome == "pass", (ctx.name, r.counterexample)


def test_unit_invariance_counts(z6_over_z30):
    r = mo.check_unit_invariance(z6_over_z30, _minus_matrix(z6_over_z30))
    units_s = len(z6_over_z30.endos.units())
    units_r = len(z6_over_z30.module.ring.units())
    assert r.checks == (units_s + units_r) * 36


def test_annihilator_monotone(corpus):
    for ctx in corpus.values():
        r = mo.check_annihilator_monotone(ctx, _minus_matrix(ctx))
        assert r.outcome == "pass", ctx.name


@pytest.mark.parametrize("check,law", [(mo.check_annihilator_monotone, "annihilator-monotone"),
                                       (mo.check_subset_cyclic, "subset-cyclic")])
def test_implication_laws_report_the_first_failing_pair(z6_over_z6, check, law):
    """With 1 <= 0 added to Z6/Z6's minus order, both consequences fail at (1, 0), as
    1R = Z6 is not in 0R = {0} and l_S(0) = S is not in l_S(1): the pair after row 0's
    six pairs, each of which holds."""
    ctx = z6_over_z6
    rows = list(_minus_matrix(ctx).rows)
    assert rows[0] == 0b111111 and not rows[1] & 1
    rows[1] |= 1
    r = check(ctx, RelationMatrix(ctx.name, "minus-dual", 6, rows))
    assert r == laws.LawReport(law, "Z6/Z6", "fail", {"pair": [1, 0]}, 7)


def test_converse_gap_z10(z10_over_z10):
    gaps = mo.find_converse_gap(z10_over_z10)
    assert (2, 6) in gaps
    assert gaps[0] == (1, 3)  # lexicographically first qualifying pair
    # every reported gap replays: inclusions hold, order fails
    for m1, m2 in gaps:
        assert z10_over_z10.l_S[m2] <= z10_over_z10.l_S[m1]
        assert z10_over_z10.r_R[m2] <= z10_over_z10.r_R[m1]
        assert not mo.minus_le_dual(z10_over_z10, m1, m2).holds


def test_converse_gap_absent_on_small_modules():
    z2 = mo.ModuleContext(mo.build_zm_over_zn(2, 2), "Z2/Z2")
    assert mo.find_converse_gap(z2) == []
    trivial = mo.ModuleContext(mo.build_zm_over_zn(1, 3), "Z1/Z3")
    assert mo.find_converse_gap(trivial) == []


# -- witness constructions and the ring bridge -------------------------------------


def test_witness_constructions(corpus):
    for ctx in corpus.values():
        r = mo.check_witness_constructions(ctx, mo.relation_matrix(ctx, "minus-idem"))
        assert r.outcome == "pass", (ctx.name, r.counterexample)


@pytest.mark.parametrize("module,refused,element,checks", [
    ((10, 10), None, 0, 1), ((10, 10), 5, 5, 17), ((6, 30), 3, 3, 10)])
def test_witness_constructions_report_a_failed_decomposition(module, refused, element, checks,
                                                              monkeypatch):
    """A kernel_summand that refuses every mR (+) N, or those with mR = refused R, fails
    the law at the first witness of the first such regular m."""
    ctx = mo.ModuleContext(mo.build_zm_over_zn(*module))
    kernel_summand = orders.kernel_summand

    def faulty(ctx, m, s):
        if refused is None or ctx.cyclic[m] == ctx.cyclic[refused]:
            return None
        return kernel_summand(ctx, m, s)
    monkeypatch.setattr(orders, "kernel_summand", faulty)
    r = mo.check_witness_constructions(ctx, mo.relation_matrix(ctx, "minus-idem"))
    assert r.to_json() == {"law": "witness-constructions", "member": ctx.name,
                           "outcome": "fail", "checks": checks,
                           "counterexample": {"kind": "decomposition", "element": element}}


def test_witness_constructions_report_an_evaluation_that_is_not_idempotent(monkeypatch):
    """On Z6/Z6 every phi of M* witnesses 0, and only x -> x witnesses 1; given x -> 2x
    instead, whose value 2 at 1 is not idempotent, the law fails at 1, the seventh phi
    it visits."""
    ctx = mo.ModuleContext(mo.build_zm_over_zn(6, 6))
    witnesses = ctx.regularity_witnesses
    assert len(witnesses[0]) == 6 and witnesses[1] == ((0, 1, 2, 3, 4, 5),)
    double = (0, 2, 4, 0, 2, 4)
    assert double in ctx.dual
    monkeypatch.setattr(ctx, "regularity_witnesses", (witnesses[0], (double,), *witnesses[2:]))
    r = mo.check_witness_constructions(ctx, mo.relation_matrix(ctx, "minus-idem"))
    assert r == laws.LawReport("witness-constructions", "Z6/Z6", "fail",
                               {"kind": "eval-idempotent", "element": 1, "e": 2}, 7)


def test_witness_constructions_report_a_smash_that_is_not_idempotent(monkeypatch):
    """A smash that gives x -> 2x for m = 1, not idempotent in S = End(Z6), fails the law
    at 1's one witness, after 0's six."""
    ctx = mo.ModuleContext(mo.build_zm_over_zn(6, 6))
    S = ctx.endos
    double = S.index_of((0, 2, 4, 0, 2, 4))
    assert S.mul[double][double] != double

    def faulty(M, S, m, phi):
        return double if m == 1 else smash(M, S, m, phi)
    monkeypatch.setattr(laws, "smash", faulty)
    r = mo.check_witness_constructions(ctx, mo.relation_matrix(ctx, "minus-idem"))
    assert r == laws.LawReport("witness-constructions", "Z6/Z6", "fail",
                               {"kind": "smash-idempotent", "element": 1, "f": double}, 7)


def test_witness_constructions_visit_the_regularity_witnesses(monkeypatch, corpus, z4_over_z4,
                                                             klein_four):
    """For each m, the law visits exactly the phi of M* whose minus-dual part has bit m
    at m, in the order of M*."""
    visited = []

    def recording_smash(M, S, m, phi):
        visited.append((m, phi))
        return smash(M, S, m, phi)
    monkeypatch.setattr(laws, "smash", recording_smash)
    (part,) = orders.minus_le_dual.parts
    for ctx in (*corpus.values(), z4_over_z4, klein_four):
        visited.clear()
        r = mo.check_witness_constructions(ctx, mo.relation_matrix(ctx, "minus-idem"))
        or_row, columns = part(ctx, ctx.dual)
        expected = [(m, t) for m in range(ctx.module.size)
                    for t, column in zip(ctx.dual, columns) if column[m] >> m & 1]
        assert sum(1 << m for m, mask in enumerate(or_row) if mask >> m & 1) == ctx.regular
        assert r.outcome == "pass" and visited == expected, ctx.name
        assert ctx.regular == sum({1 << m for m, _ in expected}), ctx.name


def _chain_scan(ctx, idem, tamper=None):
    """The witness-constructions report that the cell-by-cell chain scan gives at the first
    witnesses of minus-idem's set definition, with the clause of f also covering y in row
    m1 where ``tamper`` is (m1, f, y), counting on from one check per regularity witness."""
    parts = definitional_parts("minus-idem", module_tables(ctx))
    if tamper is not None:
        m1, f, y = tamper
        parts[m1][0][f] |= 1 << y
    rows = definitional_rows(parts)
    assert rows == idem.rows
    outcome, ce, checks = witness_chain_scan(ctx.endos.maps, ctx.module.action, parts, rows,
                                             sum(map(len, ctx.regularity_witnesses)))
    return laws.LawReport("witness-constructions", idem.member, outcome, ce, checks)


def test_witness_constructions_pass_without_the_witness_parts(monkeypatch, corpus,
                                                              oracle_contexts, z4_over_z4,
                                                              klein_four):
    """A passing law reads neither RelationMatrix.parts nor Relation.firsts, and counts
    what the cell-by-cell scan counts."""
    contexts, reads = (*corpus.values(), *oracle_contexts.values(), z4_over_z4, klein_four), []
    with monkeypatch.context() as patch:
        patch.setattr(RelationMatrix, "parts", property(reads.append))
        patch.setattr(Relation, "firsts", lambda *args: reads.append(args))
        reports = [mo.check_witness_constructions(ctx, mo.relation_matrix(ctx, "minus-idem"))
                   for ctx in contexts]
    assert reads == []
    for ctx, r in zip(contexts, reports):
        assert r.outcome == "pass", ctx.name
        assert r == _chain_scan(ctx, mo.relation_matrix(ctx, "minus-idem")), ctx.name


def test_witness_constructions_read_the_columns_once(corpus):
    """The law reads minus-idem's columns from the context, kept when each part and pool
    was ORed: the law builds none, and a second law on the same context builds none."""
    built, parts = [], orders.minus_le_idem.parts
    spies = tuple(lambda ctx, pool, part=part: built.append(part) or part(ctx, pool)
                  for part in parts)
    rel = orders.minus_le_idem._replace(parts=spies)
    for name in ("Z6/Z30", "M2(Z2)"):
        ctx, built[:] = mo.ModuleContext(corpus[name].module), []
        idem = RelationMatrix(ctx.name, "minus-idem", ctx.module.size, rel.rows(ctx), rel, ctx)
        first = mo.check_witness_constructions(ctx, idem)
        assert built == list(parts), ctx.name  # the ORs, whose columns the law reads
        for spy, part, pool in zip(spies, parts, rel.pools(ctx)):  # kept as the part gave them
            assert [entry[1:] for entry in ctx.clause_memo[spy]] == [part(ctx, pool)], ctx.name
        assert mo.check_witness_constructions(ctx, idem) == first
        assert built == list(parts) and first.outcome == "pass", ctx.name


def _tampered_idem(ctx, m1, f, y):
    """minus-idem's matrix with the column of f in the S-pool also covering y in row m1."""
    f_part, a_part = orders.minus_le_idem.parts

    def tampered(target, pool):
        columns = [[mask | (x == m1 and p == f) << y for x, mask in enumerate(column)]
                   for p, column in zip(pool, f_part(target, pool)[1])]
        return [functools.reduce(or_, cells) for cells in zip(*columns)], columns
    rel = orders.minus_le_idem._replace(parts=(tampered, a_part))
    return RelationMatrix(ctx.name, "minus-idem", ctx.module.size, rel.rows(ctx), rel, ctx)


@pytest.mark.parametrize("name", ["Z6/Z6", "Z10/Z10", "Z6/Z30", "Z2xZ3", "M2(Z2)"])
def test_witness_constructions_on_a_tampered_part(corpus, name):
    """A minus-idem column of f that also covers a related y with f y != m1 at m1 breaks the
    column pass, and the law scans the cells.  When an earlier pool element covers y, f is
    not y's witness, and the law passes with the untampered count; when f comes before
    every element that covers y, the law fails.  Each time it reports what the
    cell-by-cell scan of the set definition, tampered alike, reports."""
    ctx = corpus[name]
    idem = mo.relation_matrix(ctx, "minus-idem")
    maps, pool = ctx.endos.maps, ctx.endos.idempotent_pool
    firsts = definitional_firsts(definitional_parts("minus-idem", module_tables(ctx)),
                                 idem.rows)

    def tamper(before):  # an (m1, f, y) with f y != m1, f before or after y's witness
        return next((m1, f, y) for m1, row in enumerate(idem.rows) for y in bits(row)
                    for f in pool if maps[f][y] != m1
                    and before == (pool.index(f) < pool.index(firsts[m1][y][0])))
    later, first = tamper(False), tamper(True)
    tampered = [_tampered_idem(ctx, *at) for at in (later, first)]
    reports = [mo.check_witness_constructions(ctx, matrix) for matrix in tampered]
    assert all("parts" in vars(matrix) for matrix in tampered)  # each scanned cell by cell
    assert reports == [_chain_scan(ctx, matrix, at) for matrix, at in zip(tampered,
                                                                            (later, first))]
    assert reports[0] == mo.check_witness_constructions(ctx, idem)
    assert reports[1].outcome == "fail" and reports[1].counterexample["kind"] == "equality-chain"


def test_witness_constructions_decide_each_smash_once(monkeypatch, corpus, oracle_contexts,
                                                      z4_over_z4, klein_four):
    """kernel_summand is called once for each distinct (m, s), s = x -> m.phi(x) over the
    regularity witnesses phi of m, in the order the witnesses first give s."""
    calls, kernel_summand = [], orders.kernel_summand

    def recording(ctx, m, s):
        calls.append((m, s))
        return kernel_summand(ctx, m, s)
    monkeypatch.setattr(orders, "kernel_summand", recording)
    for ctx in (*corpus.values(), *oracle_contexts.values(), z4_over_z4, klein_four):
        calls.clear()
        r = mo.check_witness_constructions(ctx, mo.relation_matrix(ctx, "minus-idem"))
        pairs = [(m, smash(ctx.module, ctx.endos, m, phi))
                 for m, phis in enumerate(ctx.regularity_witnesses) for phi in phis]
        assert r.outcome == "pass" and calls == list(dict.fromkeys(pairs)), ctx.name
        assert len(calls) < len(pairs), ctx.name


def test_ring_bridge(corpus):
    for name in ("Z6/Z6", "Z10/Z10", "Z2xZ3", "M2(Z2)"):
        ctx = corpus[name]
        r = mo.check_ring_bridge(ctx, _minus_matrix(ctx))
        assert r.outcome == "pass", (name, r.counterexample)


def test_ring_bridge_reports_the_first_disagreement(corpus):
    """With 1 <= 0 added to Z2xZ3's minus order, the three orders first differ at (1, 0),
    the 7th cell in row-major order."""
    ctx = corpus["Z2xZ3"]
    rows = list(_minus_matrix(ctx).rows)
    assert not rows[1] & 1
    rows[1] |= 1
    r = mo.check_ring_bridge(ctx, RelationMatrix(ctx.name, "minus-dual", 6, rows))
    assert r == laws.LawReport("ring-bridge", "Z2xZ3", "fail",
                               {"pair": [1, 0], "hartwig": False, "ring-annih": False,
                                "minus-dual": True}, 7)


@pytest.mark.parametrize("tag", ["star", "lstar"])
def test_every_law_check_refuses_a_matrix_that_is_not_applicable(monkeypatch, tag):
    """M2(Z2)_R's S has no involution, so its star and lstar matrices have rows of None:
    each law check refuses them, witness-constructions before its first half."""
    ctx = mo.ModuleContext(mo.build_ring_as_module(mo.build_matrix_ring(2)))
    bad, minus = mo.relation_matrix(ctx, tag), mo.relation_matrix(ctx, "minus-dual")
    assert not bad.applicable and minus.applicable
    monkeypatch.setattr(laws, "smash", lambda *args: pytest.fail("smash called"))
    checks = [lambda: mo.check_partial_order(bad, mo.regular_set(ctx)),
              lambda: mo.check_equivalence(minus, bad),
              lambda: mo.check_equivalence(bad, minus),
              lambda: mo.check_unit_invariance(ctx, bad),
              lambda: mo.check_annihilator_monotone(ctx, bad),
              lambda: mo.check_subset_cyclic(ctx, bad),
              lambda: mo.check_witness_constructions(ctx, bad),
              lambda: mo.check_ring_bridge(ctx, bad)]
    message = (f"^relation '{tag}' is not applicable on M2\\(Z2\\)_R: "
               "the required involution is absent$")
    for check in checks:
        with pytest.raises(ValueError, match=message):
            check()


# -- the suite ----------------------------------------------------------------------


@pytest.mark.parametrize("build", [
    lambda: mo.build_zm_over_zn(6, 30),
    lambda: mo.build_ring_as_module(mo.build_matrix_ring(2)),
    lambda: mo.build_ring_as_module(mo.build_product(mo.build_zn(2), mo.build_zn(3))),
], ids=["Z6/Z30", "M2(Z2)_R", "Z2xZ3_R"])
def test_context_is_freed_by_reference_counting(build):
    """No memo or cached family refers back to its context, so once the suite and every
    matrix, with its verdicts and parts, are done with it, dropping the context frees it
    at once: a cycle would keep all its tables alive until the cycle collector ran."""
    gc.disable()
    try:
        ctx = mo.ModuleContext(build())
        mo.run_suite([ctx])
        for tag in (*mo.RELATIONS, "hartwig", "ring-annih"):
            matrix = mo.relation_matrix(ctx, tag)
            matrix.verdicts, matrix.parts
        ref = weakref.ref(ctx)
        del ctx, matrix
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("build", [
    lambda: mo.build_zm_over_zn(6, 30),
    lambda: mo.build_ring_as_module(mo.build_product(mo.build_zn(2), mo.build_zn(3))),
    lambda: mo.build_ring_as_module(mo.build_matrix_ring(2)),
], ids=["Z6/Z30", "Z2xZ3_R", "M2(Z2)_R"])
def test_suite_frees_context_and_module_without_the_cycle_collector(build):
    """With the cycle collector off, the context and its module are freed as soon as the
    suite is done and the context is dropped: the memo of the relations' ORs and columns
    on the context, and the ring's, refer to no object that refers back."""
    gc.disable()
    try:
        ctx = mo.ModuleContext(build())
        mo.run_suite([ctx])
        refs = weakref.ref(ctx), weakref.ref(ctx.module)
        del ctx
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_suite_builds_no_annihilator_family_of_the_ring():
    """On every Z_m/Z_n with m < n <= 64, the suite builds r(a) and l(a) at no more than the
    pools' a: the Rickart gate counts zeros and the a-gate of minus-idem and the star orders
    reads r(a) at its pool only.  On Z1/Z61 and Z3/Z39 the star laws' gate holds, so
    rstar's matrix is built and its law passes."""
    for n in range(2, 65):
        for m in (m for m in range(1, n) if n % m == 0):
            ctx = mo.ModuleContext(mo.build_zm_over_zn(m, n))
            reports = {r.law: r.outcome for r in mo.run_suite([ctx])}
            assert {"right_anns", "left_anns"}.isdisjoint(vars(ctx.module.ring)), ctx.name
            if (m, n) in ((1, 61), (3, 39)):
                assert reports["partial-order/rstar"] == "pass", ctx.name


def test_ring_bridge_builds_no_ideal_family_of_the_ring(monkeypatch):
    """On R_R of the default corpus and of ORACLE_RINGS, the suite builds neither principal
    ideal family and subtracts nothing in R: ring-annih gates by l(p) = R(1-p) and r(q) =
    (1-q)R, annihilators of the pool's idempotents.  On the regular ones (Z6, Z10, Z2xZ3,
    M2(Z2), Z2^6) the ring-bridge law reads ring-annih's matrix and passes."""
    monkeypatch.setattr(mo.FiniteRing, "sub", None)
    rings = {ctx.module.ring.name: ctx.module.ring for ctx in mo.default_corpus()
             if ctx.module.is_ring_as_module()}
    rings |= {name: mo.build_matrix_ring(2) if name == "M2(Z2)" else functools.reduce(
        mo.build_product, [mo.build_zn(int(f[1:])) for f in name.split("x")])
        for name in ORACLE_RINGS if name not in rings}
    bridged = []
    for ring in rings.values():
        reports = {r.law: r.outcome for r in mo.run_suite([
            mo.ModuleContext(mo.build_ring_as_module(ring), ring.name)])}
        assert {"left_ideals", "right_ideals"}.isdisjoint(vars(ring)), ring.name
        assert reports["ring-bridge"] != "fail", ring.name
        bridged += [ring.name] * (reports["ring-bridge"] == "pass")
    assert len(bridged) == 5, bridged


def test_run_suite_default_corpus(corpus):
    reports = mo.run_suite(list(corpus.values()))
    assert all(r.outcome != "fail" for r in reports), [
        (r.member, r.law, r.counterexample) for r in reports if r.outcome == "fail"]
    # star laws gate off on the matrix-ring member (transpose is not proper)
    m2 = {r.law: r.outcome for r in reports if r.member == "M2(Z2)"}
    assert m2["partial-order/star"] == "not-applicable"
    assert m2["partial-order/minus-dual"] == "pass"
    assert m2["ring-bridge"] == "pass"
    z630 = {r.law: r.outcome for r in reports if r.member == "Z6/Z30"}
    assert z630["ring-bridge"] == "not-applicable"
    assert z630["partial-order/star"] == "pass"


def test_run_suite_isolates_and_reports_non_regular_members(z4_over_z4):
    reports = mo.run_suite([z4_over_z4])
    by_law = {r.law: r for r in reports}
    assert by_law["partial-order/minus-dual"].outcome == "not-applicable"
    assert by_law["equiv/minus-dual~jones"].outcome == "not-applicable"
    # hypothesis-free laws still run
    assert by_law["equiv/mitsch~mitsch-sym"].outcome == "pass"
    assert by_law["annihilator-monotone"].outcome == "pass"
    assert by_law["subset-cyclic"].outcome == "pass"
    # per-pair-domain laws run on the restricted domain
    assert by_law["equiv/minus-dual~minus-idem"].outcome == "pass"
    assert by_law["equiv/minus-dual~dsum"].outcome == "pass"


def test_run_suite_propagates_errors(monkeypatch, z4_over_z4):
    def broken(ctx, law_filter=None):
        raise RuntimeError("broken member")
    monkeypatch.setattr(laws, "member_laws", broken)
    with pytest.raises(RuntimeError, match="broken member"):
        mo.run_suite([z4_over_z4])


def test_member_laws_builds_each_matrix_once(monkeypatch, z6_over_z30):
    built, real = [], laws.relation_matrix
    monkeypatch.setattr(laws, "relation_matrix",
                        lambda ctx, tag: built.append(tag) or real(ctx, tag))
    mo.member_laws(z6_over_z30)
    assert "mitsch" in built and len(built) == len(set(built)), built


def _spy_partial_order(monkeypatch):
    """The relation of each matrix that laws.check_partial_order is called on, in order."""
    checked, real = [], laws.check_partial_order
    monkeypatch.setattr(laws, "check_partial_order",
                        lambda rel, domain: checked.append(rel.relation) or real(rel, domain))
    return checked


@pytest.mark.parametrize("name", ["Z6/Z6", "Z10/Z10", "Z6/Z30", "Z2xZ3"])
def test_equal_rows_are_checked_as_a_partial_order_once(monkeypatch, corpus, name):
    """On a regular commutative member the four partial-order laws read equal rows: one
    check runs, and each star law reports what its own check would, under its own name."""
    ctx, real = mo.ModuleContext(corpus[name].module, name), laws.check_partial_order
    checked = _spy_partial_order(monkeypatch)
    reports = mo.member_laws(ctx, "partial-order/")
    assert checked == ["minus-dual"]
    assert reports == [real(mo.relation_matrix(ctx, tag), mo.regular_set(ctx))
                       for tag in ("minus-dual", "rstar", "lstar", "star")]
    assert {r.outcome for r in reports} == {"pass"}


def test_star_rows_unlike_minus_dual_get_their_own_check(monkeypatch, z6_over_z6):
    """Where rstar's rows differ from minus-dual's (its f part here drops row 0 from its OR),
    the rstar law runs its own check, which fails reflexivity at 0; lstar and star, whose
    rows equal minus-dual's, reuse its report."""
    f_part, a_part = orders.right_star_le.parts

    def dropped(target, pool):
        or_row, columns = f_part(target, pool)
        return [0, *or_row[1:]], columns
    monkeypatch.setitem(orders._BY_TAG, "rstar",
                        orders.right_star_le._replace(parts=(dropped, a_part)))
    checked = _spy_partial_order(monkeypatch)
    reports = {r.law: r for r in mo.member_laws(mo.ModuleContext(z6_over_z6.module, "Z6/Z6"),
                                                 "partial-order/")}
    assert checked == ["minus-dual", "rstar"]
    assert reports["partial-order/rstar"].outcome == "fail"
    assert reports["partial-order/rstar"].counterexample == {"axiom": "reflexivity",
                                                             "element": 0}
    minus = reports["partial-order/minus-dual"]
    assert minus.outcome == "pass"
    for tag in ("lstar", "star"):
        assert reports[f"partial-order/{tag}"] == minus._replace(law=f"partial-order/{tag}")


def test_run_suite_law_filter(corpus):
    reports = mo.run_suite([corpus["Z6/Z6"]], law_filter="equiv")
    assert reports and all("equiv" in r.law for r in reports)


@pytest.mark.parametrize("law_filter, reads", [
    ("ring-bridge", {"minus-dual", "hartwig", "ring-annih"}),
    ("mitsch~", {"mitsch", "mitsch-sym"}),
    ("partial-order/lstar", {"lstar"}),
    ("witness", {"minus-idem"}),
    ("no such law", set()),
])
def test_filtered_suite_builds_only_what_its_laws_read(monkeypatch, law_filter, reads):
    built, real = [], laws.relation_matrix
    monkeypatch.setattr(laws, "relation_matrix",
                        lambda ctx, tag: built.append(tag) or real(ctx, tag))
    reports = [r.to_json() for r in mo.run_suite(mo.default_corpus(), law_filter)]
    assert set(built) == reads
    assert reports == [r.to_json() for r in mo.run_suite(mo.default_corpus())
                       if law_filter in r.law]


def test_reports_are_reproducible(z6_over_z30):
    a = [r.to_json() for r in mo.member_laws(z6_over_z30)]
    b = [r.to_json() for r in mo.member_laws(z6_over_z30)]
    assert a == b


def test_member_laws_report_every_law_id_in_order(corpus):
    """LAW_IDS, which the CLI's --laws filter is checked against, is the suite's laws."""
    for ctx in corpus.values():
        assert tuple(r.law for r in mo.member_laws(ctx)) == laws.LAW_IDS


def test_empty_corpus():
    assert mo.run_suite([]) == []


def test_matrix_cells_match_fresh_evaluation(z6_over_z30):
    mat = _minus_matrix(z6_over_z30)
    for i in range(mat.size):
        for j in range(mat.size):
            assert bool(mat.rows[i] >> j & 1) == mo.minus_le_dual(z6_over_z30, i, j).holds
