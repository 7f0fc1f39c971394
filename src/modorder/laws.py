"""Executable theorem suite: each claim checked exhaustively over a corpus.

A law whose hypotheses fail on a corpus member is reported ``not-applicable``,
never ``pass``.  Failures carry a replayable counterexample.  Reports are
pure functions of their inputs, so reruns produce identical output.
"""

from __future__ import annotations

from functools import partial
from operator import and_, invert, mul, or_
from typing import NamedTuple

from . import orders
from .homs import ModuleContext, smash
from .modules import build_ring_as_module, build_zm_over_zn
from .rings import RING_RELATIONS, AxiomError, SpecError, build_matrix_ring, build_product, build_zn
from .tables import greedy_generators, lazy
from .verdicts import OrderVerdict, Relation, bits, check_elements


class LawReport(NamedTuple):
    law: str
    member: str
    outcome: str                      # "pass" | "fail" | "not-applicable"
    counterexample: dict | None = None
    checks: int = 0

    def to_json(self) -> dict:
        return {"law": self.law, "member": self.member, "outcome": self.outcome,
                "checks": self.checks, "counterexample": self.counterexample}


class RelationMatrix:
    """A relation over a member as one mask per row: bit y of ``rows[x]`` says that x is
    related to y (a row of None: not applicable).  One built by ``relation_matrix`` also
    keeps the relation and the context (or ring) it ran on, from which it finds the
    holding cells' witness parts and the verdicts when first read."""

    def __init__(self, member: str, relation: str, size: int, rows: list[int | None],
                 rel: Relation | None = None, target: object = None):
        self.member, self.relation, self.size, self.rows = member, relation, size, rows
        self.rel, self.target = rel, target

    @lazy
    def applicable(self) -> bool:
        return None not in self.rows

    @lazy
    def parts(self) -> list[dict[int, tuple]] | None:
        """For each x, the first witness parts at each y that x is related to."""
        return self.rel and [self.rel.firsts(self.target, x, mask) if mask else {}
                             for x, mask in enumerate(self.rows)]

    def verdict(self, x: int, y: int) -> OrderVerdict:
        """The verdict at (x, y), with its witness where the relation holds; ValueError for an
        operand outside 0..size-1."""
        check_elements(self.target, x, y)
        return self.rel.verdict(self.target, x, y, self.rows[x])

    @lazy
    def verdicts(self) -> list[list[OrderVerdict]] | None:
        return self.rel and [[self.verdict(x, y) for y in range(self.size)]
                             for x in range(self.size)]


def relation_matrix(ctx: ModuleContext, tag: str) -> RelationMatrix:
    """A module relation's matrix over ctx's module, or a ring relation's over its ring, from
    the relation's ``rows``; read from ``orders._BY_TAG``, as a profiler may rebind
    ``RELATIONS``.  The ORs behind the rows are kept on the context (on the ring, for a ring
    relation) by part and pool, so that a second call, or a relation with the same part and
    an equal pool (jones, minus-relaxed and minus-image; mitsch, mitsch-sym and gb;
    minus-idem and the star orders where every idempotent is a projection), builds no column
    again."""
    if tag in orders.RELATIONS:
        rel, target = orders._BY_TAG[tag], ctx
    elif tag in RING_RELATIONS:
        rel, target = RING_RELATIONS[tag], ctx.module.ring
    else:
        raise ValueError(f"unknown relation {tag!r}")
    rows = rel.rows(target)
    return RelationMatrix(ctx.name, tag, len(rows), rows, rel, target)


# -- individual law checks ---------------------------------------------------------


def _rows(rel: RelationMatrix) -> list[int]:
    """rel's rows; ValueError where it is not applicable, so that no check reads a None."""
    if not rel.applicable:
        raise ValueError(f"relation {rel.relation!r} is not applicable on {rel.member}: "
                         "the required involution is absent")
    return rel.rows


def check_partial_order(rel: RelationMatrix, reflexive_domain) -> LawReport:
    """Reflexivity on the stated domain, antisymmetry/transitivity everywhere.  ``checks``
    counts the cells a cell-by-cell scan would visit: |domain| diagonal cells, the n^2
    cells for antisymmetry, then n cells k for each related pair (i, j)."""
    n, rows = rel.size, _rows(rel)
    report = partial(LawReport, f"partial-order/{rel.relation}", rel.member)
    checks = 0
    for m in sorted(reflexive_domain):
        checks += 1
        if not rows[m] >> m & 1:
            return report("fail", {"axiom": "reflexivity", "element": m}, checks)
    for i, row in enumerate(rows):
        for j in bits(row & ~(1 << i)):
            if rows[j] >> i & 1:
                return report("fail", {"axiom": "antisymmetry", "pair": [i, j]},
                              checks + i * n + j + 1)
    checks += n * n
    for i, row in enumerate(rows):
        for j in bits(row):
            if missing := rows[j] & ~row:
                k = next(bits(missing))
                return report("fail", {"axiom": "transitivity", "triple": [i, j, k]},
                              checks + k + 1)
            checks += n
    return report("pass", None, checks)


def check_equivalence(rel_a: RelationMatrix, rel_b: RelationMatrix,
                      domain: tuple[int, int] | None = None) -> LawReport:
    """Row-by-row equality, optionally restricted to the cells (x, y) with x in the row
    mask and y in the column mask of ``domain``; ``checks`` counts the cells compared."""
    if rel_a.size != rel_b.size:
        raise ValueError("matrices over different modules")
    rows_a, rows_b = _rows(rel_a), _rows(rel_b)
    law = f"equiv/{rel_a.relation}~{rel_b.relation}"
    every = (1 << rel_a.size) - 1
    dom_rows, cols = domain or (every, every)
    checks = 0
    for i in bits(dom_rows):
        if diff := (rows_a[i] ^ rows_b[i]) & cols:
            j = next(bits(diff))
            ce = {"pair": [i, j], rel_a.relation: bool(rows_a[i] >> j & 1),
                  rel_b.relation: bool(rows_b[i] >> j & 1)}
            for key, rel in (("witness_a", rel_a), ("witness_b", rel_b)):
                if rel.rel:
                    ce[key] = rel.verdict(i, j).to_json()["witness"]
            checks += (cols & (2 << j) - 1).bit_count()
            return LawReport(law, rel_a.member, "fail", ce, checks)
        checks += cols.bit_count()
    return LawReport(law, rel_a.member, "pass", None, checks)


def check_unit_invariance(ctx: ModuleContext, minus: RelationMatrix) -> LawReport:
    """m1 <= m2 iff g m1 <= g m2 (units g of S) iff m1 b <= m2 b (units b of R).  Each unit
    acts bijectively on M, so the pairs it maps onto edges are the preimages of the edges.
    The units whose preimage is the edge set form a group, so greedy generators of U(S)
    and U(R) decide a pass; if one fails, every unit is scanned, and the lowest pair, in
    row-major order, at which the preimage differs from the edges fails."""
    M, n = ctx.module, ctx.module.size
    edges = [(i, j) for i, row in enumerate(_rows(minus)) for j in bits(row)]
    flat = sum(1 << i * n + j for i, j in edges)

    def moved(image):  # the preimage of the edges under a bijection of M, XOR the edges
        inverse = sorted(range(n), key=image.__getitem__)
        return flat ^ sum(1 << inverse[i] * n + inverse[j] for i, j in edges)

    groups = (("S", ctx.endos, ctx.endos.maps.__getitem__),
              ("R", M.ring, lambda b: [row[b] for row in M.action]))
    sides = [(side, unit, image) for side, ring, image in groups for unit in ring.unit_pool]
    if any(moved(image(g)) for _, ring, image in groups
           for g in greedy_generators(ring.mul, ring.unit_pool, ring.one)):
        for u, (side, unit, image) in enumerate(sides):
            if diff := moved(image(unit)):
                first = next(bits(diff))
                return LawReport("unit-invariance", minus.member, "fail",
                                 {"side": side, "unit": unit, "pair": list(divmod(first, n))},
                                 u * n * n + first + 1)
    return LawReport("unit-invariance", minus.member, "pass", None, len(sides) * n * n)


def _implication(law: str, minus: RelationMatrix, consequence) -> LawReport:
    """m1 <= m2 implies consequence(m1, m2), checked on every related pair."""
    checks = 0
    for i, row in enumerate(_rows(minus)):
        for j in bits(row):
            checks += 1
            if not consequence(i, j):
                return LawReport(law, minus.member, "fail", {"pair": [i, j]}, checks)
    return LawReport(law, minus.member, "pass", None, checks)


def check_annihilator_monotone(ctx: ModuleContext, minus: RelationMatrix) -> LawReport:
    """m1 <= m2 implies l_S(m2) <= l_S(m1) and r_R(m2) <= r_R(m1)."""
    return _implication("annihilator-monotone", minus,
                        lambda i, j: ctx.l_S[j] <= ctx.l_S[i] and ctx.r_R[j] <= ctx.r_R[i])


def check_subset_cyclic(ctx: ModuleContext, minus: RelationMatrix) -> LawReport:
    """m1 <= m2 implies m1 R <= m2 R."""
    return _implication("subset-cyclic", minus, lambda i, j: ctx.cyclic[i] <= ctx.cyclic[j])


def find_converse_gap(ctx: ModuleContext) -> list[tuple[int, int]]:
    """All pairs, in ascending lexicographic order, where both annihilator inclusions
    hold yet m1 is not below m2: each shows that annihilator monotonicity cannot be
    reversed (all are returned, so callers can pick out any pair of interest)."""
    minus, l_S, r_R = relation_matrix(ctx, "minus-dual"), ctx.l_S, ctx.r_R
    every = (1 << minus.size) - 1
    return [(m1, m2) for m1, row in enumerate(minus.rows) for m2 in bits(every & ~row)
            if l_S[m2] <= l_S[m1] and r_R[m2] <= r_R[m1]]


def check_witness_constructions(ctx: ModuleContext, idem: RelationMatrix) -> LawReport:
    """Constructions attached to regularity witnesses, plus the equality chain.

    For every regular m and every witnessing functional phi: phi(m) is
    idempotent in R, x -> m.phi(x) is idempotent in S, and M = mR (+) N with
    N = {n : m.phi(n) = 0}.  For every pair related in ``idem``, the
    ``minus-idem`` matrix, its witness (f, a) satisfies
    m1 = f m1 = f m2 = m1 a = m2 a.

    Both steps for s = x -> m.phi(x) depend on (m, s) alone: each distinct s of an m is
    decided once.  The chain is checked on the columns of ``idem``'s parts, the cells' first
    witnesses among them: each p maps m1, and the m2 in row m1 that it covers at m1, to m1.
    This holds on working code, as for idempotent f, 1 - f in l_S(f) = l_S(m1) gives f m1 =
    m1, and a likewise.  Only if some p fails are the witnesses scanned cell by cell.
    """
    M, S, R, rows = ctx.module, ctx.endos, ctx.module.ring, _rows(idem)
    fail = partial(LawReport, "witness-constructions", idem.member, "fail")
    checks = 0
    for m in bits(ctx.regular):
        split = set()  # the s of m already found idempotent, with M = mR (+) ker s
        for phi in ctx.regularity_witnesses[m]:
            checks += 1
            e = phi[m]
            if R.mul[e][e] != e:
                return fail({"kind": "eval-idempotent", "element": m, "e": e}, checks)
            s = smash(M, S, m, phi)
            if s in split:
                continue
            if S.mul[s][s] != s:
                return fail({"kind": "smash-idempotent", "element": m, "f": s}, checks)
            if orders.kernel_summand(ctx, m, s) is None:  # the scan checked phi
                return fail({"kind": "decomposition", "element": m}, checks)
            split.add(s)
    fibres = (S.preimages, M.column_preimages)  # {x : p(x) = v} as a mask, by p then v
    own = [1 << m1 for m1 in range(idem.size)]

    def chained(column, fibre):  # no m1 at which p covers an m2 of the row, p m1 or p m2 != m1
        covers = list(map(and_, column, rows))
        return not any(map(mul, map(bool, covers),
                           map(and_, map(or_, covers, own), map(invert, fibre))))
    if all(chained(column, fibre[p]) for (pool, columns), fibre
           in zip(idem.rel.columns(idem.target), fibres) for p, column in zip(pool, columns)):
        return LawReport("witness-constructions", idem.member, "pass", None,
                         checks + sum(row.bit_count() for row in rows))
    for m1, row in enumerate(idem.parts):
        for m2, (f, a) in row.items():
            checks += 1
            t = S.maps[f]
            chain = (t[m1] == m1 and t[m2] == m1
                     and M.action[m1][a] == m1 and M.action[m2][a] == m1)
            if not chain:
                return fail({"kind": "equality-chain", "pair": [m1, m2], "f": f, "a": a},
                            checks)
    return LawReport("witness-constructions", idem.member, "pass", None, checks)


def check_ring_bridge(ctx: ModuleContext, minus: RelationMatrix) -> LawReport:
    """On R_R over a von Neumann regular ring, the module minus order, the
    Hartwig order and the annihilator form of the ring order coincide."""
    hartwig, annih = relation_matrix(ctx, "hartwig"), relation_matrix(ctx, "ring-annih")
    n = hartwig.size
    for a, (h, w, m) in enumerate(zip(hartwig.rows, annih.rows, _rows(minus))):
        if diff := (h ^ w) | (h ^ m):
            b = next(bits(diff))
            return LawReport("ring-bridge", minus.member, "fail",
                             {"pair": [a, b], "hartwig": bool(h >> b & 1),
                              "ring-annih": bool(w >> b & 1), "minus-dual": bool(m >> b & 1)},
                             a * n + b + 1)
    return LawReport("ring-bridge", minus.member, "pass", None, n * n)


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

# Every law id, in report order.
LAW_IDS = ("partial-order/minus-dual", "partial-order/rstar", "partial-order/lstar",
           "partial-order/star", "equiv/minus-dual~minus-idem", "equiv/minus-dual~minus-relaxed",
           "equiv/minus-dual~minus-image", "equiv/minus-dual~jones", "equiv/minus-dual~mitsch",
           "equiv/minus-dual~gb", "equiv/mitsch~mitsch-sym", "equiv/minus-dual~dsum",
           "unit-invariance", "annihilator-monotone", "subset-cyclic", "witness-constructions",
           "ring-bridge")


def member_laws(ctx: ModuleContext, law_filter: str | None = None) -> list[LawReport]:
    """Every law, in a fixed order, for one corpus member; with ``law_filter``, only the
    laws whose id contains it, so that only the matrices those laws read are built."""
    reports = []
    regular, _ = orders.is_regular_module(ctx)
    reg_dom = orders.regular_set(ctx)
    n, R = ctx.module.size, ctx.module.ring
    matrices = {}  # one object per tag for every law; a profiler may rebind relation_matrix

    def matrix(tag):
        return matrices.get(tag) or matrices.setdefault(tag, relation_matrix(ctx, tag))

    def law(name, check):
        """Run a law the filter keeps; a check that returns False is not applicable."""
        if name not in LAW_IDS:
            raise AssertionError(f"law {name} is not in LAW_IDS")
        if not law_filter or law_filter in name:
            reports.append(check() or LawReport(name, ctx.name, "not-applicable"))

    # check_partial_order reads only the rows, n and reg_dom, and its counterexamples name no
    # relation: equal rows share one report, renamed
    checked = {}

    def partial_order(tag):
        if (rows := tuple(matrix(tag).rows)) not in checked:
            checked[rows] = check_partial_order(matrix(tag), reg_dom)
        return checked[rows]._replace(law=f"partial-order/{tag}")

    law("partial-order/minus-dual", lambda: regular and partial_order("minus-dual"))
    # Each star order takes projections in these rings; its laws need them Rickart *.
    for tag, rings in (("rstar", lambda: (R,)), ("lstar", lambda: (ctx.endos,)),
                       ("star", lambda: (R, ctx.endos))):
        law(f"partial-order/{tag}", lambda: regular and all(
            r.involution is not None and r.rickart_star.holds for r in rings())
            and partial_order(tag))

    # Theorem-by-theorem equivalences with the definitional form
    law("equiv/minus-dual~minus-idem",
        lambda: check_equivalence(matrix("minus-dual"), matrix("minus-idem"),
                                  (ctx.regular, (1 << n) - 1)))
    for tag in ("minus-relaxed", "minus-image", "jones", "mitsch", "gb"):
        law(f"equiv/minus-dual~{tag}", lambda: regular and check_equivalence(
            matrix("minus-dual"), matrix(tag)))
    law("equiv/mitsch~mitsch-sym",
        lambda: check_equivalence(matrix("mitsch"), matrix("mitsch-sym")))
    law("equiv/minus-dual~dsum",
        lambda: check_equivalence(matrix("minus-dual"), matrix("dsum"),
                                  (ctx.regular, ctx.regular)))

    law("unit-invariance", lambda: regular and check_unit_invariance(ctx, matrix("minus-dual")))
    law("annihilator-monotone", lambda: check_annihilator_monotone(ctx, matrix("minus-dual")))
    law("subset-cyclic", lambda: check_subset_cyclic(ctx, matrix("minus-dual")))
    law("witness-constructions", lambda: check_witness_constructions(ctx, matrix("minus-idem")))
    # R_R is regular iff R is von Neumann regular, as phi in M* is x -> phi(1)x
    law("ring-bridge", lambda: ctx.module.is_ring_as_module() and regular
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
