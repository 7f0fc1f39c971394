"""Executable theorem suite: each claim checked exhaustively over a corpus.

A law whose hypotheses fail on a corpus member is reported ``not-applicable``,
never ``pass``.  Failures carry a replayable counterexample.  Reports are
pure functions of their inputs, so reruns produce identical output;
``elapsed`` is kept on the report object but never serialized.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property, partial, wraps

from . import orders
from .homs import ModuleContext, smash
from .modules import build_ring_as_module, build_zm_over_zn
from .rings import (RING_RELATIONS, AxiomError, SpecError, build_matrix_ring, build_product,
                    build_zn, is_rickart_star, vn_regular_witness)
from .verdicts import OrderVerdict, Relation


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
    """A relation's cells over a member.  One built by ``relation_matrix`` also keeps the
    relation, the context (or ring) it ran on and each row's mask (None: not applicable),
    from which it finds the holding cells' witness parts and the verdicts when first read."""

    member: str
    relation: str
    size: int
    cells: list[list[bool]]
    rel: Relation | None = field(repr=False, default=None)
    target: object = field(repr=False, default=None)
    rows: list[int | None] = field(repr=False, default_factory=list)

    @cached_property
    def applicable(self) -> bool:
        return None not in self.rows

    @cached_property
    def parts(self) -> list[list[tuple | None]] | None:
        """Each cell's first witness parts, None where the relation fails."""
        return self.rel and [[self.rel.first(self.target, x, y) if cell else None
                              for y, cell in enumerate(row)] for x, row in enumerate(self.cells)]

    @cached_property
    def verdicts(self) -> list[list[OrderVerdict]] | None:
        return self.rel and [[self.rel.verdict(self.target, x, y, mask) for y in range(self.size)]
                             for x, mask in enumerate(self.rows)]


def relation_matrix(ctx: ModuleContext, tag: str) -> RelationMatrix:
    """A module relation's matrix over ctx's module, or a ring relation's over its ring, one
    ``row`` per x; read from ``orders._BY_TAG``, as a profiler may rebind ``RELATIONS``."""
    if tag in orders.RELATIONS:
        rel, target, n = orders._BY_TAG[tag], ctx, ctx.module.size
    elif tag in RING_RELATIONS:
        rel, target, n = RING_RELATIONS[tag], ctx.module.ring, ctx.module.ring.size
    else:
        raise ValueError(f"unknown relation {tag!r}")
    rows = [rel.row(target, x, (1 << n) - 1) for x in range(n)]
    # bit y of a row's mask is character y of its reversed binary form
    cells = [[c == "1" for c in f"{mask or 0:0{n}b}"[::-1]] for mask in rows]
    return RelationMatrix(ctx.name, tag, n, cells, rel, target, rows)


# -- individual law checks ---------------------------------------------------------


def _timed(check):
    """Fill the returned report's ``elapsed`` with the check's wall time."""
    @wraps(check)
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
    report = partial(LawReport, f"partial-order/{rel.relation}", rel.member)
    checks = 0
    for m in sorted(reflexive_domain):
        checks += 1
        if not cells[m][m]:
            return report("fail", {"axiom": "reflexivity", "element": m}, checks)
    for i in range(n):
        for j in range(n):
            checks += 1
            if i != j and cells[i][j] and cells[j][i]:
                return report("fail", {"axiom": "antisymmetry", "pair": [i, j]}, checks)
    for i in range(n):
        for j in range(n):
            if not cells[i][j]:
                continue
            for k in range(n):
                checks += 1
                if cells[j][k] and not cells[i][k]:
                    return report("fail", {"axiom": "transitivity", "triple": [i, j, k]}, checks)
    return report("pass", None, checks)


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
                ce = {"pair": [i, j], rel_a.relation: rel_a.cells[i][j],
                      rel_b.relation: rel_b.cells[i][j]}
                for key, rel in (("witness_a", rel_a), ("witness_b", rel_b)):
                    if rel.verdicts:
                        ce[key] = rel.verdicts[i][j].to_json()["witness"]
                return LawReport(law, rel_a.member, "fail", ce, checks)
    return LawReport(law, rel_a.member, "pass", None, checks)


@_timed
def check_unit_invariance(ctx: ModuleContext, minus: RelationMatrix) -> LawReport:
    """m1 <= m2 iff g m1 <= g m2 (units g of S) iff m1 b <= m2 b (units b of R)."""
    M, S = ctx.module, ctx.endos
    cells = minus.cells
    checks = 0
    sides = [("S", g, S.maps[g]) for g in sorted(S.units())]
    sides += [("R", b, [row[b] for row in M.action]) for b in sorted(M.ring.units())]
    for side, unit, image in sides:
        for i in range(M.size):
            for j in range(M.size):
                checks += 1
                if cells[i][j] != cells[image[i]][image[j]]:
                    return LawReport("unit-invariance", minus.member, "fail",
                                     {"side": side, "unit": unit, "pair": [i, j]}, checks)
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
    """All pairs, in ascending lexicographic order, where both annihilator inclusions
    hold yet m1 is not below m2: each shows that annihilator monotonicity cannot be
    reversed (all are returned, so callers can pick out any pair of interest)."""
    minus, l_S, r_R = relation_matrix(ctx, "minus-dual"), ctx.l_S, ctx.r_R
    return [(m1, m2) for m1 in range(minus.size) for m2 in range(minus.size)
            if l_S[m2] <= l_S[m1] and r_R[m2] <= r_R[m1] and not minus.cells[m1][m2]]


@_timed
def check_witness_constructions(ctx: ModuleContext, idem: RelationMatrix) -> LawReport:
    """Constructions attached to regularity witnesses, plus the equality chain.

    For every regular m and every witnessing functional phi: phi(m) is
    idempotent in R, x -> m.phi(x) is idempotent in S, and M = mR (+) N with
    N = {n : m.phi(n) = 0}.  For every pair related in ``idem``, the
    ``minus-idem`` matrix, its witness (f, a) satisfies
    m1 = f m1 = f m2 = m1 a = m2 a.
    """
    M, S, R = ctx.module, ctx.endos, ctx.module.ring
    fail = partial(LawReport, "witness-constructions", idem.member, "fail")
    (regular,) = orders.REGULARITY.parts
    checks = 0
    for m in range(M.size):
        for phi in (t for t in ctx.dual if regular(ctx, m, t) >> m & 1):
            checks += 1
            e = phi[m]
            if R.mul[e][e] != e:
                return fail({"kind": "eval-idempotent", "element": m, "e": e}, checks)
            s = smash(M, S, m, phi)
            if S.mul[s][s] != s:
                return fail({"kind": "smash-idempotent", "element": m, "f": s}, checks)
            try:
                orders.regular_decomposition(ctx, m, phi)
            except AssertionError:
                return fail({"kind": "decomposition", "element": m}, checks)
    for m1, row in enumerate(idem.parts):
        for m2, parts in enumerate(row):
            if parts is None:
                continue
            checks += 1
            f, a = parts
            t = S.maps[f]
            chain = (t[m1] == m1 and t[m2] == m1
                     and M.action[m1][a] == m1 and M.action[m2][a] == m1)
            if not chain:
                return fail({"kind": "equality-chain", "pair": [m1, m2], "f": f, "a": a},
                            checks)
    return LawReport("witness-constructions", idem.member, "pass", None, checks)


@_timed
def check_ring_bridge(ctx: ModuleContext, minus: RelationMatrix) -> LawReport:
    """On R_R over a von Neumann regular ring, the module minus order, the
    Hartwig order and the annihilator form of the ring order coincide."""
    hartwig, annih = relation_matrix(ctx, "hartwig"), relation_matrix(ctx, "ring-annih")
    checks = 0
    for a in range(hartwig.size):
        for b in range(hartwig.size):
            checks += 1
            h, w, m = hartwig.cells[a][b], annih.cells[a][b], minus.cells[a][b]
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


def member_laws(ctx: ModuleContext, law_filter: str | None = None) -> list[LawReport]:
    """Every law, in a fixed order, for one corpus member; with ``law_filter``, only the
    laws whose id contains it, so that only the matrices those laws read are built."""
    reports, shared = [], {}
    regular, _ = orders.is_regular_module(ctx)
    reg_dom = orders.regular_set(ctx)
    n, R = ctx.module.size, ctx.module.ring

    def matrix(tag):  # a matrix that several laws read, built once
        if tag not in shared:
            shared[tag] = relation_matrix(ctx, tag)
        return shared[tag]

    def law(name, check):
        """Run a law the filter keeps; a check that returns False is not applicable."""
        if not law_filter or law_filter in name:
            reports.append(check() or LawReport(name, ctx.name, "not-applicable"))

    law("partial-order/minus-dual",
        lambda: regular and check_partial_order(matrix("minus-dual"), reg_dom))
    # Each star order takes projections in these rings; its laws need them Rickart *.
    for tag, rings in (("rstar", lambda: (R,)), ("lstar", lambda: (ctx.endos,)),
                       ("star", lambda: (R, ctx.endos))):
        law(f"partial-order/{tag}", lambda: regular and all(
            r.involution is not None and is_rickart_star(r).holds for r in rings())
            and check_partial_order(relation_matrix(ctx, tag), reg_dom))

    # Theorem-by-theorem equivalences with the definitional form
    law("equiv/minus-dual~minus-idem",
        lambda: check_equivalence(matrix("minus-dual"), matrix("minus-idem"),
                                  {(i, j) for i in reg_dom for j in range(n)}))
    for tag in ("minus-relaxed", "minus-image", "jones", "mitsch", "gb"):
        law(f"equiv/minus-dual~{tag}", lambda: regular and check_equivalence(
            matrix("minus-dual"), matrix(tag) if tag == "mitsch" else relation_matrix(ctx, tag)))
    law("equiv/mitsch~mitsch-sym",
        lambda: check_equivalence(matrix("mitsch"), relation_matrix(ctx, "mitsch-sym")))
    shared.pop("mitsch", None)  # peak memory counts the matrices alive at once
    law("equiv/minus-dual~dsum",
        lambda: check_equivalence(matrix("minus-dual"), relation_matrix(ctx, "dsum"),
                                  {(i, j) for i in reg_dom for j in reg_dom}))

    law("unit-invariance", lambda: regular and check_unit_invariance(ctx, matrix("minus-dual")))
    law("annihilator-monotone", lambda: check_annihilator_monotone(ctx, matrix("minus-dual")))
    law("subset-cyclic", lambda: check_subset_cyclic(ctx, matrix("minus-dual")))
    law("witness-constructions", lambda: check_witness_constructions(ctx, matrix("minus-idem")))
    law("ring-bridge", lambda: ctx.module.is_ring_as_module()
        and all(vn_regular_witness(R, a) is not None for a in range(R.size))
        and check_ring_bridge(ctx, matrix("minus-dual")))
    return reports


def run_suite(corpus, law_filter: str | None = None) -> list[LawReport]:
    """All laws over all corpus members, or those whose id contains ``law_filter``.  A
    member refused by a size cap or budget (SpecError, AxiomError) stops the suite with
    an error of the same type that names the member; any other exception propagates."""
    reports = []
    for ctx in corpus:
        try:
            reports.extend(member_laws(ctx, law_filter))
        except (SpecError, AxiomError) as exc:
            raise type(exc)(f"corpus member {ctx.name}: {exc}") from None
    return reports
