import re
from itertools import product
from math import gcd

import pytest

import modorder as mo
from modorder import orders
from modorder.orders import EQUIVALENT_FAMILY, kernel_summand
from modorder.rings import MAX_RING_SIZE, RING_RELATIONS

from oracles import (ORACLE_RINGS, brute_dsum_rows, brute_homs, brute_image_rows,
                     brute_minus_dual, brute_relaxed_rows, definitional_firsts,
                     definitional_parts, definitional_rows, direct_sum_tables, is_direct_sum,
                     is_submodule, module_tables, regularity_verdict)


# -- regularity ---------------------------------------------------------------


def test_zero_is_always_regular(z6_over_z30, z4_over_z4):
    for ctx in (z6_over_z30, z4_over_z4):
        v = mo.is_regular_element(ctx, 0)
        assert v.holds


def test_regular_element_paper_witness(z6_over_z30):
    v = mo.is_regular_element(z6_over_z30, 2)
    assert v.holds
    m = z6_over_z30.module
    t = v.witness.table
    assert m.act(2, t[2]) == 2


def test_non_regular_element(z4_over_z4):
    assert not mo.is_regular_element(z4_over_z4, 2).holds
    ok, first_bad = mo.is_regular_module(z4_over_z4)
    assert not ok and first_bad == 2
    assert mo.regular_set(z4_over_z4) == {0, 1, 3}


def test_regular_element_is_minus_dual_at_m_m(corpus, oracle_contexts, products_strata):
    """is_regular_element reads m's first regularity witness; it gives the verdict of
    minus-dual at (m, m), read off the regular mask, on every element, and it replays."""
    seen = set()
    for ctx in (*corpus.values(), *oracle_contexts.values(), *products_strata):
        for m in range(ctx.module.size):
            v = mo.is_regular_element(ctx, m)
            old = regularity_verdict(mo.minus_le_dual, ctx, m)
            assert v == old and type(v.witness) is type(old.witness), (ctx.name, m)
            assert v.to_json() == old.to_json() and mo.revalidate(ctx, v), (ctx.name, m)
            seen.add(v.holds)
    assert seen == {True, False}


def test_regular_element_out_of_range(z4_over_z4):
    for m in (-1, 4):
        with pytest.raises(ValueError, match="out of range"):
            mo.is_regular_element(z4_over_z4, m)


def test_oversized_element_is_counted_not_echoed(z6_over_z30):
    message = r"^element <1001 digits> out of range for Z6/Z30$"
    with pytest.raises(ValueError, match=message):
        mo.is_regular_element(z6_over_z30, 10 ** 1000)
    with pytest.raises(ValueError, match=message):
        mo.evaluate(z6_over_z30, "dsum", 2, 10 ** 1000)


@pytest.mark.parametrize("relation,context,x,y,shown", [
    (mo.hartwig_minus_le, lambda: mo.build_zn(6), 1, 100, "100 out of range for Z6"),
    (mo.hartwig_minus_le, lambda: mo.build_zn(6), 1, -1, "-1 out of range for Z6"),
    (mo.minus_le_dual, lambda: mo.ModuleContext(mo.build_zm_over_zn(6, 30)), 40, 2,
     "40 out of range for Z6/Z30"),
    (mo.ring_minus_le_annih, lambda: mo.build_zn(6), 10 ** 1000, 0,
     "<1001 digits> out of range for Z6"),
])
def test_relation_called_directly_checks_operands(relation, context, x, y, shown):
    """A relation object refuses an operand outside 0..size-1 as evaluate does."""
    with pytest.raises(ValueError, match=f"^element {re.escape(shown)}$"):
        relation(context(), x, y)


def test_ring_relation_on_endomorphism_ring_ranges_over_s(klein_four):
    """S = End(F2^2) has 16 elements and M has 4: S's operands range over S."""
    S = klein_four.endos
    assert S.size == 16 and mo.hartwig_minus_le(S, 15, 15).applicable
    with pytest.raises(ValueError, match="^element 16 out of range for End"):
        mo.hartwig_minus_le(S, 16, 0)


def test_regular_module_corpus(corpus):
    for ctx in corpus.values():
        ok, bad = mo.is_regular_module(ctx)
        assert ok, (ctx.name, bad)


def test_regular_decomposition_paper_example(z6_over_z30):
    phi = next(p for p in z6_over_z30.dual if p[1] == 5)
    e, n_set = mo.regular_decomposition(z6_over_z30, 2, phi)
    assert e == 10
    assert n_set == {0, 3}


def test_regular_decomposition_zero(z6_over_z30):
    phi = z6_over_z30.dual[0]  # zero functional
    e, n_set = mo.regular_decomposition(z6_over_z30, 0, phi)
    assert e == 0
    assert n_set == frozenset(range(6))


def test_regular_decomposition_summands_are_submodules(corpus):
    for ctx in corpus.values():
        M = ctx.module
        for m in range(M.size):
            for phi in ctx.dual:
                if M.action[m][phi[m]] != m:
                    continue
                e, n_set = mo.regular_decomposition(ctx, m, phi)
                assert is_submodule(M, mo.cyclic_submodule(M, m)), (ctx.name, m)
                assert is_submodule(M, n_set), (ctx.name, m, phi)


def test_regular_decomposition_rejects_non_witness(z6_over_z30):
    phi = z6_over_z30.dual[0]
    with pytest.raises(ValueError):
        mo.regular_decomposition(z6_over_z30, 2, phi)


@pytest.mark.parametrize("m", [-1, 6])
def test_regular_decomposition_rejects_out_of_range_element(corpus, m):
    """-1 is not read as the last element, and |M| gives no IndexError: both name m."""
    ctx = corpus["Z6/Z6"]
    phi = ctx.regularity_witnesses[5][0]
    with pytest.raises(ValueError, match=f"^element {m} out of range for Z6/Z6$"):
        mo.regular_decomposition(ctx, m, phi)


def test_kernel_summand_is_the_kernel_of_m_phi(corpus, klein_four):
    """At every regular m and witness phi, N is {n : m.phi(n) = 0}, as a mask, and
    regular_decomposition returns it as a frozenset."""
    for ctx in (*corpus.values(), klein_four):
        M = ctx.module
        for m in mo.regular_set(ctx):
            for phi in ctx.regularity_witnesses[m]:
                kernel = {n for n in range(M.size) if M.action[m][phi[n]] == M.zero}
                s = mo.smash(M, ctx.endos, m, phi)
                assert kernel_summand(ctx, m, s) == sum(1 << n for n in kernel), (ctx.name, m)
                assert mo.regular_decomposition(ctx, m, phi) == (phi[m], kernel)


def test_kernel_summand_refuses_the_identity_unless_mr_is_m(corpus, klein_four):
    """ker 1 = {0}, so M = mR (+) ker 1 exactly when mR = M."""
    for ctx in (*corpus.values(), klein_four):
        M, one = ctx.module, ctx.endos.one
        proper = [m for m in range(M.size) if len(ctx.cyclic[m]) < M.size]
        assert all(kernel_summand(ctx, m, one) is None for m in proper), ctx.name
        assert all(kernel_summand(ctx, m, one) == 1 << M.zero
                   for m in range(M.size) if m not in proper), ctx.name
    assert klein_four.module.size == 4 and all(len(c) < 4 for c in klein_four.cyclic)


# -- the minus order, each characterization on its worked examples ------------------


def test_minus_dual_examples(z6_over_z30, z10_over_z10):
    for m2 in range(6):
        assert mo.minus_le_dual(z6_over_z30, 0, m2).holds
    v = mo.minus_le_dual(z6_over_z30, 2, 5)
    assert v.holds and v.witness.table[1] == 20
    assert not mo.minus_le_dual(z10_over_z10, 2, 6).holds


def test_minus_idem_examples(z6_over_z30, z6_over_z6):
    v = mo.minus_le_idem(z6_over_z30, 2, 5)
    assert v.holds and (v.witness.f, v.witness.a) == (4, 10)
    s = z6_over_z30.endos
    assert s.maps[4] == tuple(4 * x % 6 for x in range(6))
    assert not mo.minus_le_idem(z6_over_z6, 1, 5).holds


def test_minus_idem_reflexive_on_regular(z6_over_z30):
    for m in range(6):
        assert mo.minus_le_idem(z6_over_z30, m, m).holds


def test_minus_idem_flags_non_regular_operand(z4_over_z4):
    v = mo.minus_le_idem(z4_over_z4, 2, 2)
    assert not v.hypothesis_ok          # still decided, just outside the theorem
    assert not v.holds
    v = mo.minus_le_idem(z4_over_z4, 0, 2)
    assert v.hypothesis_ok and v.holds


def test_minus_relaxed_examples(z6_over_z30, z10_over_z10):
    for m2 in range(6):
        v = mo.minus_le_relaxed(z6_over_z30, 0, m2)
        assert v.holds and (v.witness.f, v.witness.a) == (0, 0)
    assert mo.minus_le_relaxed(z6_over_z30, 2, 5).holds
    assert not mo.minus_le_relaxed(z10_over_z10, 2, 6).holds


def test_minus_image_examples(z6_over_z30, z6_over_z6):
    assert mo.minus_le_image(z6_over_z30, 2, 5).holds
    for m in range(6):
        assert mo.minus_le_image(z6_over_z30, m, m).holds
    assert not mo.minus_le_image(z6_over_z6, 3, 4).holds


def test_jones_examples(z6_over_z30, z10_over_z10):
    v = mo.jones_le(z6_over_z30, 2, 5)
    assert v.holds and (v.witness.f, v.witness.a) == (4, 10)
    assert not mo.jones_le(z10_over_z10, 2, 6).holds
    for m in range(6):
        assert mo.jones_le(z6_over_z30, m, m).holds


def test_mitsch_examples(z6_over_z30, z10_over_z10):
    for ctx in (z6_over_z30, z10_over_z10):
        for m in range(ctx.module.size):
            assert mo.mitsch_le(ctx, m, m).holds
    assert mo.mitsch_le(z6_over_z30, 2, 5).holds
    assert not mo.mitsch_le(z10_over_z10, 2, 6).holds


def test_mitsch_sym_agrees_with_mitsch(z6_over_z6, z4_over_z4):
    """The strengthened clause set defines the same relation, on any module."""
    for ctx in (z6_over_z6, z4_over_z4):
        n = ctx.module.size
        for i in range(n):
            for j in range(n):
                assert mo.mitsch_le(ctx, i, j).holds == mo.mitsch_le_sym(ctx, i, j).holds


def test_gb_examples(z6_over_z30, z10_over_z10):
    for m in range(6):
        assert mo.corollary_gb_le(z6_over_z30, m, m).holds
    assert mo.corollary_gb_le(z6_over_z30, 2, 5).holds
    assert not mo.corollary_gb_le(z10_over_z10, 2, 6).holds


def test_direct_sum_examples(z6_over_z30, z10_over_z10):
    v = mo.direct_sum_le(z6_over_z30, 2, 5)
    assert v.holds
    assert v.witness.first == (0, 2, 4) and v.witness.second == (0, 3)
    assert mo.cyclic_submodule(z6_over_z30.module, 5) == frozenset(range(6))
    for m in range(6):
        assert mo.direct_sum_le(z6_over_z30, m, m).holds
    assert not mo.direct_sum_le(z10_over_z10, 2, 6).holds


def test_dsum_equals_minus_on_regular_pairs_of_nonregular_module(z4_over_z4):
    """Even when the module is not regular, both-regular pairs agree."""
    reg = mo.regular_set(z4_over_z4)
    disagreements = []
    for i in range(4):
        for j in range(4):
            d = mo.direct_sum_le(z4_over_z4, i, j).holds
            m = mo.minus_le_dual(z4_over_z4, i, j).holds
            if i in reg and j in reg:
                assert d == m, (i, j)
            elif d != m:
                disagreements.append((i, j))
    assert (2, 2) in disagreements  # dsum is reflexive there, minus is not


def test_subset_cyclic(z6_over_z30):
    assert mo.subset_cyclic(z6_over_z30, 2, 5)
    assert mo.subset_cyclic(z6_over_z30, 0, 3)
    assert not mo.subset_cyclic(z6_over_z30, 2, 0)


def test_minus_implies_subset_cyclic(corpus):
    for ctx in corpus.values():
        n = ctx.module.size
        for i in range(n):
            for j in range(n):
                if mo.minus_le_dual(ctx, i, j).holds:
                    assert mo.subset_cyclic(ctx, i, j)


def test_cyclic_inclusion_strictly_weaker(z6_over_z6):
    assert mo.subset_cyclic(z6_over_z6, 1, 5)
    assert not mo.minus_le_dual(z6_over_z6, 1, 5).holds


# -- star family ---------------------------------------------------------------


def test_star_matches_minus_under_identity_involutions(z6_over_z6):
    """With identity involutions, projections are exactly the idempotents."""
    for i in range(6):
        for j in range(6):
            expected = mo.minus_le_idem(z6_over_z6, i, j).holds
            for rel in (mo.star_le, mo.left_star_le, mo.right_star_le):
                v = rel(z6_over_z6, i, j)
                assert v.applicable and v.holds == expected


def test_star_witness_flags(z6_over_z30):
    v = mo.star_le(z6_over_z30, 2, 5)
    assert v.holds and v.witness.f_projection and v.witness.a_projection
    assert (v.witness.f, v.witness.a) == (4, 10)


def test_star_trivial_pairs(z6_over_z30):
    for m2 in range(6):
        assert mo.star_le(z6_over_z30, 0, m2).holds


def test_star_implication_chain(z6_over_z30, z10_over_z10, z6_over_z6):
    """star => left-star and right-star; right-star => idempotent form."""
    for ctx in (z6_over_z30, z10_over_z10, z6_over_z6):
        n = ctx.module.size
        for i in range(n):
            for j in range(n):
                if mo.star_le(ctx, i, j).holds:
                    assert mo.left_star_le(ctx, i, j).holds
                    assert mo.right_star_le(ctx, i, j).holds
                if mo.right_star_le(ctx, i, j).holds:
                    assert mo.minus_le_idem(ctx, i, j).holds
                if mo.left_star_le(ctx, i, j).holds:
                    assert mo.minus_le_relaxed(ctx, i, j).holds


def test_star_not_applicable_without_involution(klein_four):
    assert klein_four.endos.involution is None
    for rel, tag in ((mo.star_le, "star"), (mo.left_star_le, "lstar")):
        v = rel(klein_four, 1, 1)
        assert not v.applicable and not v.holds
    # right-star only needs the ring involution, which Z2 has
    assert mo.right_star_le(klein_four, 1, 1).applicable


def test_explicit_involution_on_noncommutative_endo_ring(klein_four):
    """Supplying transpose as the involution on End(F2^2) unlocks the left-star order."""
    import modorder as mo2
    s = klein_four.endos
    inv = []
    for h in s.maps:
        a, c = h[1] & 1, h[1] >> 1
        b, d = h[2] & 1, h[2] >> 1
        table = [((a * (x & 1) + c * (x >> 1)) % 2)
                 + 2 * ((b * (x & 1) + d * (x >> 1)) % 2) for x in range(4)]
        inv.append(s.index_of(table))
    ctx = mo2.ModuleContext(klein_four.module, "F2^2-star", endo_involution=inv)
    assert ctx.endos.involution == inv  # ring-core validated it on construction
    for m in range(4):
        v = mo2.left_star_le(ctx, 0, m)
        assert v.applicable and v.holds and v.witness.f_projection
        assert mo2.revalidate(ctx, v)
    assert mo2.star_le(ctx, 1, 1).applicable


def test_vector_space_minus_is_identity_on_nonzero(klein_four):
    """Over a field the minus order collapses to equality away from zero."""
    for i in range(4):
        for j in range(4):
            expected = i == j or i == 0
            assert mo.minus_le_dual(klein_four, i, j).holds == expected


# -- witness replay ------------------------------------------------------------


def test_every_positive_verdict_revalidates(corpus, z4_over_z4, klein_four):
    contexts = list(corpus.values()) + [z4_over_z4, klein_four]
    for ctx in contexts:
        n = ctx.module.size
        for tag in mo.RELATIONS:
            for i in range(n):
                for j in range(n):
                    v = mo.evaluate(ctx, tag, i, j)
                    if v.applicable:
                        assert mo.revalidate(ctx, v), (ctx.name, tag, i, j)


def test_minus_dual_matches_independent_replay(z10_over_z10):
    """Replay the definitional clauses against the enumerated dual, independently."""
    functionals = z10_over_z10.dual
    m = z10_over_z10.module
    for i in range(10):
        for j in range(10):
            assert (mo.minus_le_dual(z10_over_z10, i, j).holds
                    == brute_minus_dual(m, functionals, i, j))


def test_minus_dual_matches_oracle_where_an_image_needs_two_generators():
    """On R (+) R over R = Z2xZ2 the image tM of a functional t can need two additive
    generators, and agreement m1.v = m2.v at one of them does not give it on all of tM.
    The matrix matches the definition replayed on the brute-force dual."""
    ring = mo.build_product(mo.build_zn(2), mo.build_zn(2))
    n = ring.size
    add = [[ring.add[x // n][y // n] * n + ring.add[x % n][y % n] for y in range(n * n)]
           for x in range(n * n)]
    action = [[ring.mul[x // n][r] * n + ring.mul[x % n][r] for r in range(n)]
              for x in range(n * n)]
    ctx = mo.ModuleContext(mo.build_module_from_tables(ring, add, action, name="R+R"))
    functionals = brute_homs(add, action, ring.add, ring.mul, n)
    assert list(ctx.dual) == functionals
    assert mo.relation_matrix(ctx, "minus-dual").rows == [
        sum(brute_minus_dual(ctx.module, functionals, i, j) << j for j in range(n * n))
        for i in range(n * n)]


# The default corpus, the oracle rings' R_R, and the Zn/Zn with n >= 40 that every
# cyclic benchmark draw holds.
DSUM_MEMBERS = tuple(dict.fromkeys(("Z6/Z6", "Z10/Z10", "Z6/Z30", "Z2xZ3", "M2(Z2)",
                                     *ORACLE_RINGS, "Z40/Z40", "Z42/Z42", "Z44/Z44")))
# Members beyond R_R and regular cyclic ones: Z4/Z8, Z8/Z8 and Z9/Z9 are not regular,
# and F2^2 and the direct sums Za+Zb/Zn of oracles.direct_sum_tables are not cyclic
# (Z4+Z2/Z4 and Z4+Z4/Z4 not regular either).
DSUM_WIDE = ("Z4/Z8", "Z8/Z8", "Z9/Z9", "F2^2", "Z4+Z2/Z4", "Z2+Z6/Z6", "Z4+Z4/Z4",
             "Z3+Z3/Z3")


@pytest.fixture(scope="module")
def dsum_members(corpus, oracle_contexts, klein_four):
    cyclic = {f"Z{m}/Z{n}": mo.ModuleContext(mo.build_zm_over_zn(m, n), f"Z{m}/Z{n}")
              for m, n in ((40, 40), (42, 42), (44, 44), (4, 8), (8, 8), (9, 9))}
    sums = {f"Z{a}+Z{b}/Z{n}": mo.ModuleContext(mo.build_module_from_tables(
                mo.build_zn(n), *direct_sum_tables(a, b, n), name=f"Z{a}+Z{b}/Z{n}"))
            for a, b, n in ((4, 2, 4), (2, 6, 6), (4, 4, 4), (3, 3, 3))}
    return {**corpus, **oracle_contexts, **cyclic, **sums, "F2^2": klein_four}


@pytest.mark.parametrize("name", DSUM_MEMBERS + DSUM_WIDE)
def test_dsum_rows_match_oracle(dsum_members, name):
    ctx = dsum_members[name]
    assert mo.relation_matrix(ctx, "dsum").rows == brute_dsum_rows(ctx.module.add,
                                                                    ctx.module.action)


def _image_and_relaxed(ctx):
    """minus-image's and minus-relaxed's rows, each with its set definition's rows."""
    M, maps = ctx.module, ctx.endos.maps
    return ((mo.relation_matrix(ctx, "minus-image").rows,
             brute_image_rows(M.action, M.ring.mul, maps)),
            (mo.relation_matrix(ctx, "minus-relaxed").rows,
             brute_relaxed_rows(M.add, M.action, M.ring.mul, maps)))


@pytest.mark.parametrize("name", DSUM_MEMBERS + DSUM_WIDE)
def test_image_and_relaxed_rows_match_oracle(dsum_members, name):
    """The Jones parts give the rows of the set definitions m1R <= fM, Sm1 <= Ma and
    l_S(f) <= l_S(m1), r_R(a) <= r_R(m1), on members that are not regular, not cyclic, or
    (F2^2, M2(Z2)) have a noncommutative S."""
    for rows, oracle in _image_and_relaxed(dsum_members[name]):
        assert rows == oracle


@pytest.mark.parametrize("name", DSUM_MEMBERS + DSUM_WIDE)
def test_relaxed_form_shares_the_jones_parts(dsum_members, name):
    """minus-image and minus-relaxed read jones's parts tuple, and mitsch-sym and gb read
    mitsch's, each group with the same rows.  After all 12 matrices, the memo holds the ORs
    of exactly the parts that RELATIONS names, none of a part that no relation reads."""
    assert mo.minus_le_image.parts is mo.minus_le_relaxed.parts is mo.jones_le.parts
    assert mo.mitsch_le_sym.parts is mo.corollary_gb_le.parts is mo.mitsch_le.parts
    ctx = mo.ModuleContext(dsum_members[name].module)
    rows = {tag: mo.relation_matrix(ctx, tag).rows for tag in mo.RELATIONS}
    for group in (("jones", "minus-image", "minus-relaxed"), ("mitsch", "mitsch-sym", "gb")):
        assert len({tuple(rows[tag]) for tag in group}) == 1, group
    assert set(ctx.clause_memo) == {part for rel in mo.RELATIONS.values() for part in rel.parts}


@pytest.mark.parametrize("name", ("Z4/Z8", "Z8/Z8", "F2^2", "Z6/Z30", "M2(Z2)"))
def test_replay_accepts_exactly_the_set_definitions_pairs(dsum_members, name):
    """A forged MapPair(f, a) replays for gb and mitsch-sym, and a forged IdemPair(f, a) for
    minus-image, at (m1, m2) exactly when that relation's own set definition holds for (f, a)
    there, for every f of S and a of R: the shared parts decide each pair as the definition
    does, and minus-image refuses a pair off its idempotent pools."""
    ctx = dsum_members[name]
    tables, n = module_tables(ctx), ctx.module.size
    pairs, outcomes = list(product(range(len(ctx.endos.maps)), ctx.module.ring.element_pool)), set()
    for tag, witness in (("gb", mo.MapPair), ("mitsch-sym", mo.MapPair),
                         ("minus-image", mo.IdemPair)):
        rel = orders.RELATIONS[tag]
        for m1, (f_masks, a_masks) in enumerate(definitional_parts(tag, tables)):
            for m2 in range(n):
                covered = rel.covers(ctx, m1, m2)
                for f, a in pairs:
                    verdict = mo.OrderVerdict(tag, (m1, m2), True, witness(f, a), covered)
                    defined = bool(f_masks.get(f, 0) >> m2 & a_masks.get(a, 0) >> m2 & 1)
                    assert mo.revalidate(ctx, verdict) == defined, (tag, m1, m2, f, a)
                    outcomes.add((tag, defined))
    assert len(outcomes) == 6, outcomes


def _definitional_matrices(ctx):
    """(tag, matrix, parts by the set definition) for every module and ring relation."""
    tables, R = module_tables(ctx), ctx.module.ring
    for tag in (*mo.RELATIONS, *RING_RELATIONS):
        parts = (definitional_parts(tag, ring=(R.add, R.mul)) if tag in RING_RELATIONS
                 else definitional_parts(tag, tables))
        yield tag, mo.relation_matrix(ctx, tag), parts


def _assert_matrices_are_their_definitions(ctx):
    """Each matrix's rows and first witnesses, in pool order, are its set definition's."""
    for tag, matrix, parts in _definitional_matrices(ctx):
        if parts is None:
            assert not matrix.applicable, (ctx.name, tag)
            continue
        rows = definitional_rows(parts)
        assert matrix.rows == rows, (ctx.name, tag)
        assert matrix.parts == definitional_firsts(parts, rows), (ctx.name, tag)


@pytest.mark.parametrize("name", DSUM_MEMBERS + DSUM_WIDE)
def test_matrices_are_their_definitions(dsum_members, name):
    _assert_matrices_are_their_definitions(mo.ModuleContext(dsum_members[name].module))


def test_matrices_are_their_definitions_on_the_products_strata(products_strata):
    assert len(products_strata) == 31
    for ctx in products_strata:
        _assert_matrices_are_their_definitions(ctx)



@pytest.mark.parametrize("name", DSUM_MEMBERS)
def test_kernel_summand_matches_oracle(dsum_members, name):
    """For every m and every s in S, not only the witness pairs of the witness law,
    kernel_summand gives the mask of ker s exactly when M = mR (+) ker s by the definition,
    with ker s read from the tables."""
    ctx = dsum_members[name]
    M, whole = ctx.module, range(ctx.module.size)
    for s, t in enumerate(ctx.endos.maps):
        kernel = {x for x in whole if t[x] == M.zero}
        for m in whole:
            split = is_direct_sum(M.add, M.zero, M.action[m], kernel, whole)
            assert kernel_summand(ctx, m, s) == (sum(1 << x for x in kernel) if split
                                                 else None), (m, s)


from hypothesis import given, settings, strategies as st


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=1, max_value=12))
def test_minus_is_partial_order_on_any_zn_over_zn(n):
    """Poset axioms hold on the regular domain of every small Zn over itself."""
    ctx = mo.ModuleContext(mo.build_zm_over_zn(n, n))
    report = mo.check_partial_order(mo.relation_matrix(ctx, "minus-dual"),
                                    mo.regular_set(ctx))
    assert report.outcome == "pass", report.counterexample


@st.composite
def _direct_sum_shapes(draw):
    """(a, b, n) with a and b dividing n <= 12, and a*b within the module cap."""
    n = draw(st.integers(min_value=1, max_value=12))
    divisors = [k for k in range(1, n + 1) if n % k == 0]
    a = draw(st.sampled_from(divisors))
    return a, draw(st.sampled_from([b for b in divisors if a * b <= 64])), n


@settings(max_examples=25, deadline=None)
@given(_direct_sum_shapes())
def test_dsum_rows_match_oracle_on_direct_sums(shape):
    """The size rows of dsum equal the definition on Za (+) Zb over Zn, cyclic or not."""
    add, action = direct_sum_tables(*shape)
    M = mo.build_module_from_tables(mo.build_zn(shape[2]), add, action)
    assert mo.relation_matrix(mo.ModuleContext(M), "dsum").rows == brute_dsum_rows(add, action)


@settings(max_examples=15, deadline=None)
@given(_direct_sum_shapes().filter(  # |End(Za (+) Zb)| = ab gcd(a, b)^2 within the cap on S
    lambda shape: shape[0] * shape[1] * gcd(*shape[:2]) ** 2 <= MAX_RING_SIZE))
def test_image_and_relaxed_rows_match_oracle_on_direct_sums(shape):
    add, action = direct_sum_tables(*shape)
    M = mo.build_module_from_tables(mo.build_zn(shape[2]), add, action)
    for rows, oracle in _image_and_relaxed(mo.ModuleContext(M)):
        assert rows == oracle


@settings(max_examples=10, deadline=None)
@given(_direct_sum_shapes().filter(
    lambda shape: shape[0] * shape[1] * gcd(*shape[:2]) ** 2 <= MAX_RING_SIZE))
def test_matrices_are_their_definitions_on_direct_sums(shape):
    """Every matrix, rows and first witnesses, is its set definition on Za (+) Zb over Zn."""
    add, action = direct_sum_tables(*shape)
    M = mo.build_module_from_tables(mo.build_zn(shape[2]), add, action)
    _assert_matrices_are_their_definitions(mo.ModuleContext(M))


def test_evaluate_rejects_bad_input(z6_over_z6):
    with pytest.raises(ValueError):
        mo.evaluate(z6_over_z6, "minus-dual", 0, 6)
    with pytest.raises(ValueError):
        mo.evaluate(z6_over_z6, "nope", 0, 1)


def test_equivalent_family_is_nine():
    assert len(EQUIVALENT_FAMILY) == 9
