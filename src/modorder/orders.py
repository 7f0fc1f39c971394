"""Decision procedures for the order relations, each returning a replayable witness.

Every characterization is one :class:`~modorder.verdicts.Relation` entry,
written straight from its own defining clauses as one function per clause
part, a mask per pool element; the proved equivalences between them are
verified by the law suite, never assumed here.  The same parts drive the
decision of one query (:func:`evaluate`) or one matrix row
(``laws.relation_matrix``), the witness search (the first hit of each pool,
so verdicts are deterministic) and the witness replay (:func:`revalidate`).
A clause may be decided by an identity proved beside it (``dsum`` by sizes, minus-image
and minus-relaxed by the Jones clauses, mitsch-sym and gb by the Mitsch clauses), its set
definition then kept as a test oracle.

Theorem-hypothesis violations (a non-regular operand where the
characterization assumes regularity) do not abort: the raw existential is
still decided and the verdict carries ``hypothesis_ok=False``.
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter

from .homs import ModuleContext, generating_set, smash
from .modules import cyclic_submodule  # noqa: F401 -- perfbench's tracer wraps this binding
from .modules import right_ann
from .rings import _annih_q
from .verdicts import (DirectSumWitness, DualWitness, IdemPair, MapPair, OrderVerdict, Relation,
                       bits, check_elements, equal_keys, fibre_columns, fixed_points, kept_part,
                       or_columns)


# -- the definitional form and regularity ---------------------------------------------


def _dual_part(ctx: ModuleContext, pool) -> tuple[list[int], list[list[int]]]:
    """For each t, at each m1 = m1.t(m1) (read off m1's regularity witnesses): the m2 with
    t(m1) = t(m2) and m1.v = m2.v for every v in tM.  tM is the right ideal that the t(g)
    span, g in generating_set(M), and agreement at v and w carries to v.r and v + w, so it
    is read at those t(g) only, as the action's preimage masks, cell by cell."""
    M, fibres = ctx.module, ctx.dual_masks
    cols, gens = M.column_preimages, generating_set(M) or [M.zero]
    columns, acc = {t: [0] * M.size for t in pool}, [0] * M.size
    for m1, (phis, times) in enumerate(zip(ctx.regularity_witnesses, M.action)):
        for t in phis:
            if (column := columns.get(t)) is not None:
                mask = fibres[t][t[m1]]
                for g in gens:
                    mask &= cols[t[g]][times[t[g]]]
                column[m1] = mask
                acc[m1] |= mask
    return acc, list(columns.values())


minus_le_dual = Relation("minus-dual", lambda ctx: (ctx.dual,), (_dual_part,),
                         DualWitness)


def is_regular_element(ctx: ModuleContext, m: int) -> OrderVerdict:
    """Zelmanowitz regularity, some phi in M* with m = m.phi(m), is m <= m in minus-dual:
    the witness is m's first regularity witness, minus-dual's first at (m, m)."""
    check_elements(ctx, m)
    phis = ctx.regularity_witnesses[m]
    return OrderVerdict("regular", (m, m), bool(phis), DualWitness(phis[0]) if phis else None)


def regular_set(ctx: ModuleContext) -> frozenset[int]:
    return frozenset(bits(ctx.regular))


def is_regular_module(ctx: ModuleContext):
    """(True, None) or (False, first non-regular element)."""
    irregular = ~ctx.regular & (1 << ctx.module.size) - 1
    return next(((False, m) for m in bits(irregular)), (True, None))


def regular_decomposition(ctx: ModuleContext, m: int, phi) -> tuple[int, frozenset[int]]:
    """e = phi(m), idempotent, and N = {n : m.phi(n) = 0}, the kernel of x -> m.phi(x), with
    M = mR (+) N re-verified.  ValueError unless m is an element of M and phi, the value
    table of a functional, witnesses its regularity."""
    M, phi = ctx.module, tuple(phi)
    check_elements(ctx, m)
    if phi not in ctx.regularity_witnesses[m]:
        raise ValueError(f"functional does not witness regularity of {m}")
    e = phi[m]
    assert M.ring.mul[e][e] == e
    n_mask = kernel_summand(ctx, m, smash(M, ctx.endos, m, phi))
    if n_mask is None:
        raise AssertionError(f"decomposition failed for m={m}")
    return e, frozenset(bits(n_mask))


def kernel_summand(ctx: ModuleContext, m: int, s: int):
    """The mask of N = ker s, the zero fibre of S.preimages[s], if M = mR (+) N; else None.
    By sizes: |mR + N| = |mR|.|N| / |mR meet N|, and |mR meet N| = |mR| / |s(m)R| as s maps
    mR onto s(m)R; so |s(m)R| = |mR| and |mR|.|N| = |M| give M = mR (+) N, both checked."""
    M, S, cyclic = ctx.module, ctx.endos, ctx.cyclic
    if not (0 <= m < M.size and 0 <= s < S.size):
        check_elements(M, m)
        check_elements(S, s)
    n_mask, size = S.preimages[s][M.zero], len(cyclic[m])
    split = len(cyclic[S.maps[s][m]]) == size and size * n_mask.bit_count() == M.size
    return n_mask if split else None


# -- hypotheses and pools -----------------------------------------------------------


def _m1_regular(ctx: ModuleContext, m1: int, m2: int) -> bool:
    return bool(ctx.regular >> m1 & 1)


def _both_regular(ctx: ModuleContext, m1: int, m2: int) -> bool:
    return bool(ctx.regular >> m1 & ctx.regular >> m2 & 1)


def _module_regular(ctx: ModuleContext, m1: int, m2: int) -> bool:
    return ctx.regular == (1 << ctx.module.size) - 1


def _idempotents(ctx: ModuleContext):
    return ctx.endos.idempotent_pool, ctx.module.ring.idempotent_pool


def _everything(ctx: ModuleContext):
    return ctx.endos.element_pool, ctx.module.ring.element_pool


# -- clause parts: for each p of a pool, a column of m2 masks by m1; and their OR -------


def _f_fixing(ctx: ModuleContext, pool) -> tuple[list[int], list[list[int]]]:
    """Mitsch's f side, m1 = f m1 = f m2: where f fixes m1, the fibre of m1 under f."""
    return fibre_columns(pool, ctx.endos.preimages, ctx.endos.maps.__getitem__, fixed_points)


def _f_any(ctx: ModuleContext, pool):
    return or_columns([ctx.endos.preimages[f] for f in pool])


def _a_any(ctx: ModuleContext, pool):
    return or_columns([ctx.module.column_preimages[a] for a in pool])


def _summands(ctx: ModuleContext):
    """Every distinct cyclic submodule, as a candidate A = m1 R and as a candidate B."""
    return (ctx.summands[0],) * 2


def _first_summand(ctx: ModuleContext, pool):
    """For each A, every m2 (-1) at the m1 with m1 R = A, else 0."""
    every, classes, _ = ctx.summands
    return or_columns([[-(c == i) for c in classes] for i in map(every.index, pool)])


def _second_summand(ctx: ModuleContext, pool) -> tuple[list[int], list[list[int]]]:
    """For each B, at each m1, the m2 with (m2 - m1) R = B and m2 R = m1 R (+) B, an
    internal direct sum, decided by sizes: m2 = m1 + d is kept iff |m2 R| = |m1 R|.|dR|.
    With A = m1 R and B = dR, m2.r = m1.r + d.r puts m2 R in A + B, and |A + B| = |A||B| /
    |A meet B|; so the equation forces A meet B = 0 and m2 R = A + B, and a direct sum
    satisfies it, on every finite module.  One pass over (m1, d) puts each kept m2 in the
    column of the class of dR, and in the OR at m1."""
    every, classes, sizes = ctx.summands
    columns, acc = [[0] * len(classes) for _ in every], [0] * len(classes)
    for m1, (sums, k) in enumerate(zip(ctx.module.add, sizes)):
        for m2, c, size in zip(sums, classes, sizes):
            if sizes[m2] == k * size:
                columns[c][m1] |= 1 << m2
                acc[m1] |= 1 << m2
    return (acc, columns) if pool is every else or_columns(
        [columns[every.index(b)] for b in pool])


# The clause parts of minus-idem and the star family, l_S(f) = l_S(m1) and r_R(a) = r_R(m1),
# one tuple: where their pools are equal, they share its ORs.  r(a) is built at pool a only.
def _f_annihilator(ctx: ModuleContext, pool) -> tuple[list[int], list[list[int]]]:
    return fibre_columns(pool, ctx.endos.preimages, ctx.endos.maps.__getitem__,
                         equal_keys(ctx.endos.left_anns.__getitem__, ctx.l_S))


def _a_annihilator(ctx: ModuleContext, pool) -> tuple[list[int], list[list[int]]]:
    if (M := ctx.module).is_ring_as_module():  # its column_preimages, action, r_R: the ring's
        return kept_part(M.ring, _annih_q, pool)[1:]
    return fibre_columns(pool, M.column_preimages, lambda a: list(map(itemgetter(a), M.action)),
                         equal_keys(partial(right_ann, ctx.ring_module), ctx.r_R))


_IDEMPOTENT_PARTS = (_f_annihilator, _a_annihilator)


def _idempotent_form(tag: str, f_projection: bool, a_projection: bool) -> Relation:
    """Annihilator-equality form, f and/or a upgraded to projections (needs involutions)."""
    def pools(ctx: ModuleContext):
        S, R = ctx.endos, ctx.module.ring
        if (f_projection and S.involution is None) or (a_projection and R.involution is None):
            return None
        return (S.projection_pool if f_projection else S.idempotent_pool,
                R.projection_pool if a_projection else R.idempotent_pool)

    return Relation(tag, pools, _IDEMPOTENT_PARTS,
                    partial(IdemPair, f_projection=f_projection, a_projection=a_projection),
                    _m1_regular)


# -- the relation table ----------------------------------------------------------------

# The Jones and Mitsch forms.
jones_le = Relation("jones", _idempotents, (_f_any, _a_any), IdemPair, _module_regular)
mitsch_le = Relation("mitsch", _everything, (_f_fixing, _a_any), MapPair, _module_regular)
# The minus order, three more characterizations.
minus_le_idem = _idempotent_form("minus-idem", False, False)
# minus-relaxed, l_S(f) <= l_S(m1) and r_R(a) <= r_R(m1), and minus-image, m1 R <= fM and
# S m1 <= Ma, each with f m1 = f m2 and m1 a = m2 a over idempotent f and a, are Jones's parts.
# Each f clause holds iff f m1 = m1: l_S(f) = S(1 - f) and l_S(m1) is a left ideal, and fM =
# {x : f x = x} is a submodule holding m1 R iff it holds m1.  Each a clause holds iff m1 a = m1:
# r_R(a) = (1 - a)R, and Ma = {x : x a = x} is an S-submodule, holding S m1 iff it holds m1.
# f m1 = m1 with f m1 = f m2 is m1 = f m2 (which gives f m1 = f f m2 = m1); so on the a side.
minus_le_relaxed = jones_le._replace(tag="minus-relaxed")
minus_le_image = jones_le._replace(tag="minus-image")
# mitsch-sym (m1 = f m1 = f m2 = m2 a = m1 a) and gb (m1 = f m2 = m2 a = m1 a) accept the
# (f, a) that mitsch (m1 = f m1 = f m2 = m2 a) does, on every module, as f is R-linear: from
# mitsch's, m1 a = f(m2) a = f(m2 a) = f(m1) = m1; from gb's, f m1 = f(m2 a) = f(m2) a = m1 a
# = m1.  Each accepts a product of an f set and an a set, so equal pair sets give equal first
# f and a: the three share one parts tuple, with the same rows, witnesses and replays.
mitsch_le_sym = mitsch_le._replace(tag="mitsch-sym")
corollary_gb_le = mitsch_le._replace(tag="gb")
# The direct-sum order.
direct_sum_le = Relation("dsum", _summands, (_first_summand, _second_summand),
                         DirectSumWitness, _both_regular)
# The star family: R and/or S must be *-rings.
right_star_le = _idempotent_form("rstar", False, True)
left_star_le = _idempotent_form("lstar", True, False)
star_le = _idempotent_form("star", True, True)


def subset_cyclic(ctx: ModuleContext, m1: int, m2: int) -> bool:
    """m1 R <= m2 R (a consequence of the minus order, strictly weaker)."""
    check_elements(ctx, m1, m2)
    return ctx.cyclic[m1] <= ctx.cyclic[m2]


RELATIONS = {rel.tag: rel for rel in (
    minus_le_dual, minus_le_idem, minus_le_relaxed, minus_le_image, jones_le, mitsch_le,
    mitsch_le_sym, corollary_gb_le, direct_sum_le, right_star_le, left_star_le, star_le)}

# Replay reads the table as defined here, even when a caller (a profiler, say) rebinds
# entries of RELATIONS; a "regular" verdict is minus-dual's at (m, m), and replays as one.
_BY_TAG = {**RELATIONS, "regular": minus_le_dual}

# the nine characterizations proved equivalent on regular modules
EQUIVALENT_FAMILY = ("minus-dual", "minus-idem", "minus-relaxed", "minus-image",
                     "jones", "mitsch", "mitsch-sym", "gb", "dsum")


def evaluate(ctx: ModuleContext, tag: str, m1: int, m2: int) -> OrderVerdict:
    try:
        rel = RELATIONS[tag]
    except KeyError:
        raise ValueError(f"unknown relation {tag!r}") from None
    return rel(ctx, m1, m2)


def revalidate(ctx: ModuleContext, verdict: OrderVerdict) -> bool:
    """Replay a verdict's witness: pool membership, then its relation's clause parts."""
    try:
        relation = _BY_TAG[verdict.relation]
    except KeyError:
        raise ValueError(f"unknown relation {verdict.relation!r}") from None
    return relation.replay(ctx, verdict)
