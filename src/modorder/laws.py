"""Executable theorem suite: each claim checked exhaustively over a corpus.

A law whose hypotheses fail on a corpus member is reported ``not-applicable``,
never ``pass``.  Failures carry a replayable counterexample.  Reports are
pure functions of their inputs, so reruns produce identical output;
``elapsed`` is kept on the report object but never serialized.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

from . import orders
from .homs import ModuleContext, smash
from .modules import build_ring_as_module, build_zm_over_zn
from .rings import (AxiomError, SpecError, build_matrix_ring, build_product, build_zn,
                    hartwig_minus_le, is_rickart_star, ring_minus_le_annih,
                    vn_regular_witness)
from .verdicts import OrderVerdict


@dataclass
class LawReport:
    law: str
    member: str
    outcome: str                      # "pass" | "fail" | "not-applicable"
    counterexample: dict | None = None
    checks: int = 0
    elapsed: float = 0.0

    def to_json(self) -> dict:
        # elapsed is intentionally dropped: identical runs must serialize identically
        return {"law": self.law, "member": self.member, "outcome": self.outcome,
                "checks": self.checks, "counterexample": self.counterexample}


@dataclass
class RelationMatrix:
    member: str
    relation: str
    size: int
    cells: list[list[bool]]
    verdicts: list[list[OrderVerdict]] = field(repr=False, default=None)

    def __getitem__(self, ij):
        return self.cells[ij[0]][ij[1]]


def relation_matrix(ctx: ModuleContext, tag: str) -> RelationMatrix:
    n = ctx.module.size
    verdicts = [[orders.evaluate(ctx, tag, i, j) for j in range(n)] for i in range(n)]
    cells = [[v.holds for v in row] for row in verdicts]
    return RelationMatrix(ctx.name, tag, n, cells, verdicts)


# -- individual law checks ---------------------------------------------------------


def _timed(check):
    """Fill the returned report's ``elapsed`` with the check's wall time."""
    @functools.wraps(check)
    def timed(*args, **kwargs):
        t0 = time.monotonic()
        report = check(*args, **kwargs)
        report.elapsed = time.monotonic() - t0
        return report
    return timed


@_timed
def check_partial_order(rel: RelationMatrix, reflexive_domain) -> LawReport:
    """Reflexivity on the stated domain, antisymmetry/transitivity everywhere."""
    n, cells = rel.size, rel.cells
    checks = 0
    for m in sorted(reflexive_domain):
        checks += 1
        if not cells[m][m]:
            return LawReport(f"partial-order/{rel.relation}", rel.member, "fail",
                             {"axiom": "reflexivity", "element": m}, checks)
    for i in range(n):
        for j in range(n):
            checks += 1
            if i != j and cells[i][j] and cells[j][i]:
                return LawReport(f"partial-order/{rel.relation}", rel.member, "fail",
                                 {"axiom": "antisymmetry", "pair": [i, j]}, checks)
    for i in range(n):
        for j in range(n):
            if not cells[i][j]:
                continue
            for k in range(n):
                checks += 1
                if cells[j][k] and not cells[i][k]:
                    return LawReport(f"partial-order/{rel.relation}", rel.member, "fail",
                                     {"axiom": "transitivity", "triple": [i, j, k]}, checks)
    return LawReport(f"partial-order/{rel.relation}", rel.member, "pass", None, checks)


@_timed
def check_equivalence(rel_a: RelationMatrix, rel_b: RelationMatrix,
                      domain_pairs=None) -> LawReport:
    """Elementwise matrix equality, optionally restricted to stated pairs."""
    if rel_a.size != rel_b.size:
        raise ValueError("matrices over different modules")
    law = f"equiv/{rel_a.relation}~{rel_b.relation}"
    checks = 0
    for i in range(rel_a.size):
        for j in range(rel_a.size):
            if domain_pairs is not None and (i, j) not in domain_pairs:
                continue
            checks += 1
            if rel_a.cells[i][j] != rel_b.cells[i][j]:
                ce = {"pair": [i, j],
                      rel_a.relation: rel_a.cells[i][j],
                      rel_b.relation: rel_b.cells[i][j]}
                if rel_a.verdicts:
                    ce["witness_a"] = rel_a.verdicts[i][j].to_json()["witness"]
                if rel_b.verdicts:
                    ce["witness_b"] = rel_b.verdicts[i][j].to_json()["witness"]
                return LawReport(law, rel_a.member, "fail", ce, checks)
    return LawReport(law, rel_a.member, "pass", None, checks)


@_timed
def check_unit_invariance(ctx: ModuleContext, minus: RelationMatrix) -> LawReport:
    """m1 <= m2 iff g m1 <= g m2 (units g of S) iff m1 b <= m2 b (units b of R)."""
    M, S = ctx.module, ctx.endos
    cells = minus.cells
    checks = 0
    for g in sorted(S.units()):
        gm = S.maps[g]
        for i in range(M.size):
            for j in range(M.size):
                checks += 1
                if cells[i][j] != cells[gm[i]][gm[j]]:
                    return LawReport("unit-invariance", minus.member, "fail",
                                     {"side": "S", "unit": g, "pair": [i, j]}, checks)
    for b in sorted(M.ring.units()):
        for i in range(M.size):
            for j in range(M.size):
                checks += 1
                if cells[i][j] != cells[M.action[i][b]][M.action[j][b]]:
                    return LawReport("unit-invariance", minus.member, "fail",
                                     {"side": "R", "unit": b, "pair": [i, j]}, checks)
    return LawReport("unit-invariance", minus.member, "pass", None, checks)


def _implication(law: str, minus: RelationMatrix, consequence) -> LawReport:
    """m1 <= m2 implies consequence(m1, m2), checked on every related pair."""
    checks = 0
    for i in range(minus.size):
        for j in range(minus.size):
            if not minus.cells[i][j]:
                continue
            checks += 1
            if not consequence(i, j):
                return LawReport(law, minus.member, "fail", {"pair": [i, j]}, checks)
    return LawReport(law, minus.member, "pass", None, checks)


@_timed
def check_annihilator_monotone(ctx: ModuleContext, minus: RelationMatrix) -> LawReport:
    """m1 <= m2 implies l_S(m2) <= l_S(m1) and r_R(m2) <= r_R(m1)."""
    return _implication("annihilator-monotone", minus,
                        lambda i, j: ctx.l_S[j] <= ctx.l_S[i] and ctx.r_R[j] <= ctx.r_R[i])


@_timed
def check_subset_cyclic(ctx: ModuleContext, minus: RelationMatrix) -> LawReport:
    """m1 <= m2 implies m1 R <= m2 R."""
    return _implication("subset-cyclic", minus,
                        lambda i, j: orders.subset_cyclic(ctx, i, j))


def find_converse_gap(ctx: ModuleContext) -> list[tuple[int, int]]:
    """All pairs where both annihilator inclusions hold yet m1 is not below m2.

    Such pairs witness that the annihilator-monotonicity implication cannot
    be reversed.  Listed in ascending lexicographic order (there can be many;
    returning them all keeps the search deterministic and lets callers pick
    out any particular pair of interest).
    """
    M = ctx.module
    gaps = []
    for m1 in range(M.size):
        for m2 in range(M.size):
            if ctx.l_S[m2] <= ctx.l_S[m1] and ctx.r_R[m2] <= ctx.r_R[m1]:
                if not orders.minus_le_dual(ctx, m1, m2).holds:
                    gaps.append((m1, m2))
    return gaps


@_timed
def check_witness_constructions(ctx: ModuleContext, idem: RelationMatrix) -> LawReport:
    """Constructions attached to regularity witnesses, plus the equality chain.

    For every regular m and every witnessing functional phi: phi(m) is
    idempotent in R, x -> m.phi(x) is idempotent in S, and M = mR (+) N with
    N = {n : m.phi(n) = 0}.  For every pair related in ``idem``, the
    ``minus-idem`` matrix, its witness (f, a) satisfies
    m1 = f m1 = f m2 = m1 a = m2 a.
    """
    member = idem.member
    M, S, R = ctx.module, ctx.endos, ctx.module.ring
    checks = 0
    for m in range(M.size):
        for (phi,) in orders.REGULARITY.clauses(ctx, m, m, ctx.dual):
            checks += 1
            e = phi[m]
            if R.mul[e][e] != e:
                return LawReport("witness-constructions", member, "fail",
                                 {"kind": "eval-idempotent", "element": m, "e": e}, checks)
            s = smash(M, S, m, phi)
            if S.mul[s][s] != s:
                return LawReport("witness-constructions", member, "fail",
                                 {"kind": "smash-idempotent", "element": m, "f": s}, checks)
            try:
                orders.regular_decomposition(ctx, m, phi)
            except AssertionError:
                return LawReport("witness-constructions", member, "fail",
                                 {"kind": "decomposition", "element": m}, checks)
    for m1, row in enumerate(idem.verdicts):
        for m2, v in enumerate(row):
            if not v.holds:
                continue
            checks += 1
            f, a = v.witness.f, v.witness.a
            t = S.maps[f]
            chain = (t[m1] == m1 and t[m2] == m1
                     and M.action[m1][a] == m1 and M.action[m2][a] == m1)
            if not chain:
                return LawReport("witness-constructions", member, "fail",
                                 {"kind": "equality-chain", "pair": [m1, m2],
                                  "f": f, "a": a}, checks)
    return LawReport("witness-constructions", member, "pass", None, checks)


@_timed
def check_ring_bridge(ctx: ModuleContext, minus: RelationMatrix) -> LawReport:
    """On R_R over a von Neumann regular ring, the module minus order, the
    Hartwig order and the annihilator form of the ring order coincide."""
    R = ctx.module.ring
    checks = 0
    for a in range(R.size):
        for b in range(R.size):
            checks += 1
            h = hartwig_minus_le(R, a, b).holds
            w = ring_minus_le_annih(R, a, b).holds
            m = minus.cells[a][b]
            if not (h == w == m):
                return LawReport("ring-bridge", minus.member, "fail",
                                 {"pair": [a, b], "hartwig": h, "ring-annih": w,
                                  "minus-dual": m}, checks)
    return LawReport("ring-bridge", minus.member, "pass", None, checks)


# -- corpora -----------------------------------------------------------------------


def paper_corpus() -> list[ModuleContext]:
    """The two worked examples plus Z6 over itself."""
    return [
        ModuleContext(build_zm_over_zn(10, 10), "Z10/Z10"),
        ModuleContext(build_zm_over_zn(6, 30), "Z6/Z30"),
        ModuleContext(build_zm_over_zn(6, 6), "Z6/Z6"),
    ]


def default_corpus() -> list[ModuleContext]:
    return [
        ModuleContext(build_zm_over_zn(6, 6), "Z6/Z6"),
        ModuleContext(build_zm_over_zn(10, 10), "Z10/Z10"),
        ModuleContext(build_zm_over_zn(6, 30), "Z6/Z30"),
        ModuleContext(build_ring_as_module(build_product(build_zn(2), build_zn(3))),
                      "Z2xZ3"),
        ModuleContext(build_ring_as_module(build_matrix_ring(2)), "M2(Z2)"),
    ]


CORPORA = {"paper": paper_corpus, "default": default_corpus}


# -- the suite ---------------------------------------------------------------------


def member_laws(ctx: ModuleContext) -> list[LawReport]:
    """Every law, in a fixed order, for one corpus member."""
    reports = []
    regular, _ = orders.is_regular_module(ctx)
    reg_dom = orders.regular_set(ctx)
    minus = relation_matrix(ctx, "minus-dual")
    n = ctx.module.size

    def na(law):
        reports.append(LawReport(law, ctx.name, "not-applicable"))

    if regular:
        reports.append(check_partial_order(minus, reg_dom))
    else:
        na("partial-order/minus-dual")

    # Each star order takes projections in these rings; its laws need them Rickart *.
    R, S = ctx.module.ring, ctx.endos
    for tag, rings in (("rstar", (R,)), ("lstar", (S,)), ("star", (R, S))):
        if regular and all(r.involution is not None and is_rickart_star(r).holds
                           for r in rings):
            reports.append(check_partial_order(relation_matrix(ctx, tag), reg_dom))
        else:
            na(f"partial-order/{tag}")

    # Theorem-by-theorem equivalences with the definitional form
    idem = relation_matrix(ctx, "minus-idem")
    dom_main = {(i, j) for i in reg_dom for j in range(n)}
    reports.append(check_equivalence(minus, idem, dom_main))

    mitsch = relation_matrix(ctx, "mitsch")
    for tag in ("minus-relaxed", "minus-image", "jones", "mitsch", "gb"):
        if regular:
            reports.append(check_equivalence(
                minus, mitsch if tag == "mitsch" else relation_matrix(ctx, tag)))
        else:
            na(f"equiv/minus-dual~{tag}")

    reports.append(check_equivalence(mitsch, relation_matrix(ctx, "mitsch-sym")))
    del mitsch  # peak memory counts the matrices alive at once

    dom_both = {(i, j) for i in reg_dom for j in reg_dom}
    reports.append(check_equivalence(minus, relation_matrix(ctx, "dsum"), dom_both))

    if regular:
        reports.append(check_unit_invariance(ctx, minus))
    else:
        na("unit-invariance")

    reports.append(check_annihilator_monotone(ctx, minus))
    reports.append(check_subset_cyclic(ctx, minus))
    reports.append(check_witness_constructions(ctx, idem))

    if ctx.module.is_ring_as_module() and all(
            vn_regular_witness(ctx.module.ring, a) is not None
            for a in range(ctx.module.ring.size)):
        reports.append(check_ring_bridge(ctx, minus))
    else:
        na("ring-bridge")

    return reports


def run_suite(corpus, law_filter: str | None = None) -> list[LawReport]:
    """All laws over all corpus members.  A member refused by a size cap or budget
    (SpecError, AxiomError) stops the suite with an error of the same type that
    names the member; any other exception propagates as it is."""
    reports = []
    for ctx in corpus:
        try:
            reports.extend(member_laws(ctx))
        except (SpecError, AxiomError) as exc:
            raise type(exc)(f"corpus member {ctx.name}: {exc}") from None
    if law_filter:
        reports = [r for r in reports if law_filter in r.law]
    return reports
