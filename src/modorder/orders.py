"""Decision procedures for the order relations, each returning a replayable witness.

Every characterization is one :class:`~modorder.verdicts.Relation` entry,
written straight from its own defining clauses; the proved equivalences
between them are verified by the law suite, never assumed here.  The same
clauses drive the search (:func:`evaluate`) and the witness replay
(:func:`revalidate`).  Witness searches run over their pools in ascending
order and return the first hit, so identical queries always produce
identical verdicts.

Theorem-hypothesis violations (a non-regular operand where the
characterization assumes regularity) do not abort: the raw existential is
still decided and the verdict carries ``hypothesis_ok=False``.
"""

from __future__ import annotations

from functools import partial
from operator import eq, le

from .homs import ModuleContext
from .modules import cyclic_submodule, is_direct_sum
from .verdicts import (DirectSumWitness, DualWitness, IdemPair, MapPair,
                       OrderVerdict, Relation)


# -- regularity -----------------------------------------------------------------


def _regular_clauses(ctx: ModuleContext, m: int, _, tables):
    """Zelmanowitz regularity: a functional phi with m = m.phi(m)."""
    act = ctx.module.action
    for t in tables:
        if act[m][t[m]] == m:
            yield (t,)


# Called as REGULARITY(ctx, m, m); ctx.regular caches its verdicts.
REGULARITY = Relation("regular", lambda ctx, m, _: (ctx.dual,),
                      _regular_clauses, DualWitness)


def is_regular_element(ctx: ModuleContext, m: int) -> OrderVerdict:
    """Zelmanowitz regularity: some phi in M* with m = m.phi(m)."""
    return ctx.regular[m]


def regular_set(ctx: ModuleContext) -> frozenset[int]:
    return frozenset(m for m, v in enumerate(ctx.regular) if v.holds)


def is_regular_module(ctx: ModuleContext):
    """(True, None) or (False, first non-regular element)."""
    for m, v in enumerate(ctx.regular):
        if not v.holds:
            return False, m
    return True, None


def regular_decomposition(ctx: ModuleContext, m: int, phi) -> tuple[int, frozenset[int]]:
    """e = phi(m) and N = {n : m.phi(n) = 0}; decomposes M as mR (+) N.

    phi, the value table of a functional, must witness regularity of m (rejected
    otherwise).  The returned e is idempotent.  mR and N, the kernel of the
    endomorphism x -> m.phi(x), are submodules; mR (+) N = M is re-verified.
    """
    M = ctx.module
    if next(_regular_clauses(ctx, m, m, (phi,)), None) is None:
        raise ValueError(f"functional does not witness regularity of {m}")
    e = phi[m]
    assert M.ring.mul[e][e] == e
    row = M.action[m]
    n_set = frozenset(n for n in range(M.size) if row[phi[n]] == M.zero)
    if not is_direct_sum(M, cyclic_submodule(M, m), n_set, frozenset(range(M.size))):
        raise AssertionError(f"decomposition failed for m={m}")
    return e, n_set


# -- hypotheses and pools -----------------------------------------------------------


def _m1_regular(ctx: ModuleContext, m1: int, m2: int) -> bool:
    return ctx.regular[m1].holds


def _both_regular(ctx: ModuleContext, m1: int, m2: int) -> bool:
    return ctx.regular[m1].holds and ctx.regular[m2].holds


def _module_regular(ctx: ModuleContext, m1: int, m2: int) -> bool:
    return ctx.is_regular


def _idempotents(ctx: ModuleContext, m1: int, m2: int):
    return ctx.endos.idempotent_pool, ctx.module.ring.idempotent_pool


def _everything(ctx: ModuleContext, m1: int, m2: int):
    return ctx.endos.element_pool, ctx.module.ring.element_pool


# -- clauses ------------------------------------------------------------------------


def _dual_clauses(ctx: ModuleContext, m1: int, m2: int, tables):
    """Definitional form: phi with m1 = m1.phi(m1), m1 phi = m2 phi, phi(m1) = phi(m2)."""
    row1, row2 = ctx.module.action[m1], ctx.module.action[m2]
    for t in tables:
        if row1[t[m1]] == m1 and t[m1] == t[m2] and all(row1[v] == row2[v] for v in t):
            yield (t,)


def _annihilator_clauses(same):
    """f in S, a in R with l_S(f) ~ l_S(m1), r_R(a) ~ r_R(m1), f m1 = f m2, m1 a = m2 a.

    ``same`` is the comparison ~: equality, or inclusion for the relaxed form.
    """
    def clauses(ctx: ModuleContext, m1: int, m2: int, fs, as_):
        S, R = ctx.endos, ctx.module.ring
        row1, row2 = ctx.module.action[m1], ctx.module.action[m2]
        lann, rann, l1, r1 = S.left_anns, R.right_anns, ctx.l_S[m1], ctx.r_R[m1]
        for f in fs:
            t = S.maps[f]
            if same(lann[f], l1) and t[m1] == t[m2]:
                for a in as_:
                    if same(rann[a], r1) and row1[a] == row2[a]:
                        yield f, a
    return clauses


def _image_clauses(ctx: ModuleContext, m1: int, m2: int, fs, as_):
    """Image form: m1 R <= f M and S m1 <= M a replace the annihilator clauses."""
    maps, images, multiples = ctx.endos.maps, ctx.endos.images, ctx.multiples
    row1, row2 = ctx.module.action[m1], ctx.module.action[m2]
    m1R, Sm1 = ctx.cyclic[m1], ctx.orbits[m1]
    for f in fs:
        t = maps[f]
        if m1R <= images[f] and t[m1] == t[m2]:
            for a in as_:
                if Sm1 <= multiples[a] and row1[a] == row2[a]:
                    yield f, a


def _mitsch_clauses(f_fixes_m1: bool, a_fixes_m1: bool):
    """m1 = f m2 = m2 a, plus m1 = f m1 and m1 = m1 a where asked."""
    def clauses(ctx: ModuleContext, m1: int, m2: int, fs, as_):
        maps, row1, row2 = ctx.endos.maps, ctx.module.action[m1], ctx.module.action[m2]
        for f in fs:
            t = maps[f]
            if t[m2] == m1 and (not f_fixes_m1 or t[m1] == m1):
                for a in as_:
                    if row2[a] == m1 and (not a_fixes_m1 or row1[a] == m1):
                        yield f, a
    return clauses


def _summands(ctx: ModuleContext, m1: int, m2: int):
    M = ctx.module
    return (tuple(sorted(ctx.cyclic[m1])),), (tuple(sorted(ctx.cyclic[M.sub(m2, m1)])),)


def _direct_sum_clauses(ctx: ModuleContext, m1: int, m2: int, firsts, seconds):
    """m2 R = A (+) B as an internal direct sum, for A = m1 R and B = (m2 - m1) R."""
    for A in firsts:
        for B in seconds:
            if is_direct_sum(ctx.module, A, B, ctx.cyclic[m2]):
                yield A, B


def _idempotent_form(tag: str, f_projection: bool, a_projection: bool) -> Relation:
    """Annihilator-equality form, with f (in S) and/or a (in R) upgraded to
    projections; each upgrade needs an involution on that ring."""
    def pools(ctx: ModuleContext, m1: int, m2: int):
        S, R = ctx.endos, ctx.module.ring
        if (f_projection and S.involution is None) or (a_projection and R.involution is None):
            return None
        return (S.projection_pool if f_projection else S.idempotent_pool,
                R.projection_pool if a_projection else R.idempotent_pool)

    return Relation(tag, pools, _annihilator_clauses(eq),
                    partial(IdemPair, f_projection=f_projection, a_projection=a_projection),
                    _m1_regular)


# -- the relation table ----------------------------------------------------------------

# The minus order, four characterizations.
minus_le_dual = Relation("minus-dual", lambda ctx, m1, m2: (ctx.dual,),
                         _dual_clauses, DualWitness)
minus_le_idem = _idempotent_form("minus-idem", False, False)
minus_le_relaxed = Relation("minus-relaxed", _idempotents, _annihilator_clauses(le),
                            IdemPair, _module_regular)
minus_le_image = Relation("minus-image", _idempotents, _image_clauses, IdemPair,
                          _module_regular)
# Jones / Mitsch style and the direct-sum order.
jones_le = Relation("jones", _idempotents, _mitsch_clauses(False, False), IdemPair,
                    _module_regular)
mitsch_le = Relation("mitsch", _everything, _mitsch_clauses(True, False), MapPair,
                     _module_regular)
mitsch_le_sym = Relation("mitsch-sym", _everything, _mitsch_clauses(True, True), MapPair,
                         _module_regular)
corollary_gb_le = Relation("gb", _everything, _mitsch_clauses(False, True), MapPair,
                           _module_regular)
direct_sum_le = Relation("dsum", _summands, _direct_sum_clauses, DirectSumWitness,
                         _both_regular)
# The star family: R and/or S must be *-rings.
right_star_le = _idempotent_form("rstar", False, True)
left_star_le = _idempotent_form("lstar", True, False)
star_le = _idempotent_form("star", True, True)


def subset_cyclic(ctx: ModuleContext, m1: int, m2: int) -> bool:
    """m1 R <= m2 R (a consequence of the minus order, strictly weaker)."""
    return ctx.cyclic[m1] <= ctx.cyclic[m2]


RELATIONS = {rel.tag: rel for rel in (
    minus_le_dual, minus_le_idem, minus_le_relaxed, minus_le_image, jones_le, mitsch_le,
    mitsch_le_sym, corollary_gb_le, direct_sum_le, right_star_le, left_star_le, star_le)}

# Replay reads the table as defined here, even when a caller (a profiler, say)
# rebinds entries of RELATIONS.
_BY_TAG = {rel.tag: rel for rel in (REGULARITY, *RELATIONS.values())}

# the nine characterizations proved equivalent on regular modules
EQUIVALENT_FAMILY = ("minus-dual", "minus-idem", "minus-relaxed", "minus-image",
                     "jones", "mitsch", "mitsch-sym", "gb", "dsum")


def evaluate(ctx: ModuleContext, tag: str, m1: int, m2: int) -> OrderVerdict:
    M = ctx.module
    for m in (m1, m2):
        if not (0 <= m < M.size):
            raise ValueError(f"element {m} out of range for {M.name}")
    try:
        rel = RELATIONS[tag]
    except KeyError:
        raise ValueError(f"unknown relation {tag!r}") from None
    return rel(ctx, m1, m2)


def revalidate(ctx: ModuleContext, verdict: OrderVerdict) -> bool:
    """Replay a verdict's witness: pool membership, then its relation's clauses."""
    try:
        relation = _BY_TAG[verdict.relation]
    except KeyError:
        raise ValueError(f"unknown relation {verdict.relation!r}") from None
    return relation.replay(ctx, verdict)
