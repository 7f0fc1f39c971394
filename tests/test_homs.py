from functools import reduce

import pytest

import modorder as mo
from modorder import homs

from oracles import (ORACLE_RINGS, brute_homs, direct_sum_tables, f2_power_tables,
                     klein_four_tables, zm_over_zn_tables)


def test_generating_set_cyclic():
    m = mo.build_zm_over_zn(6, 30)
    assert mo.generating_set(m) == [1]
    r_r = mo.build_ring_as_module(mo.build_zn(10))
    assert mo.generating_set(r_r) == [1]
    assert mo.generating_set(mo.build_zm_over_zn(1, 5)) == []


def test_generating_set_two_generators(klein_four):
    gens = mo.generating_set(klein_four.module)
    assert len(gens) == 2


def test_ring_modules_take_one_generator(corpus, oracle_contexts):
    """R_R is cyclic, and the walk by decreasing |xR| meets a generator of it first."""
    z2xz2 = mo.build_ring_as_module(mo.build_product(mo.build_zn(2), mo.build_zn(2)))
    modules = [z2xz2] + [ctx.module for ctx in (*corpus.values(), *oracle_contexts.values())
                         if ctx.module.is_ring_as_module()]
    assert {"M2(Z2)_R", "Z2xZ3_R"} < {M.name for M in modules}
    for M in modules:
        assert len(mo.generating_set(M)) == 1, M.name


def test_cyclic_hom_search_extends_once_per_image(monkeypatch):
    """Hom(R_R, R_R) for R = Z2^4 takes one extension step, of one try per element."""
    M = mo.build_ring_as_module(reduce(mo.build_product, [mo.build_zn(2)] * 4))
    calls, extend = [], homs._extend
    monkeypatch.setattr(homs, "_extend", lambda *args: calls.append(args) or extend(*args))
    assert len(mo.hom_group(M, M)) == M.size
    assert len(calls) == M.size == 16


def test_chain_is_walked_once_per_module():
    """hom_group, End(M)'s tables and generating_set read one walk of the chain."""
    M = mo.build_zm_over_zn(6, 30)
    steps = homs._chain(M)
    mo.endo_ring(M), mo.dual(M)
    assert homs._chain(M) is steps
    assert mo.generating_set(M) == [g for g, *_ in steps] == [1]


def test_dual_of_paper_module(z6_over_z30):
    functionals = z6_over_z30.dual
    assert len(functionals) == 6
    assert sorted(phi[1] for phi in functionals) == [0, 5, 10, 15, 20, 25]
    for phi in functionals:
        assert mo.is_hom(z6_over_z30.module, z6_over_z30.ring_module, phi)


def test_dual_of_z10(z10_over_z10):
    assert len(z10_over_z10.dual) == 10
    assert sorted(phi[1] for phi in z10_over_z10.dual) == list(range(10))


def test_dual_of_trivial_module():
    ctx = mo.ModuleContext(mo.build_zm_over_zn(1, 5))
    assert len(ctx.dual) == 1


def test_hom_group_contains_zero_and_identity(z6_over_z30):
    m = z6_over_z30.module
    endos = mo.hom_group(m, m)
    assert (0,) * 6 in endos
    assert tuple(range(6)) in endos


def test_hom_from_ring_module_is_module_sized():
    """Hom(R_R, M) has |M| elements, h -> h(1) bijectively."""
    r_r = mo.build_ring_as_module(mo.build_zn(30))
    m = mo.build_zm_over_zn(6, 30)
    homs = mo.hom_group(r_r, m)
    assert len(homs) == m.size
    assert sorted(h[1] for h in homs) == list(range(m.size))


def test_hom_rejects_mixed_rings():
    with pytest.raises(ValueError):
        mo.hom_group(mo.build_zm_over_zn(6, 30), mo.build_zm_over_zn(6, 6))


def test_hom_into_trivial_module():
    m = mo.build_zm_over_zn(6, 30)
    out = mo.hom_group(m, mo.build_zm_over_zn(1, 30))
    assert len(out) == 1


def test_endo_ring_of_paper_module(z6_over_z30):
    s = z6_over_z30.endos
    assert s.size == 6
    assert s.maps[s.one] == (0, 1, 2, 3, 4, 5)
    s.validate()  # full ring-axiom pass


def test_endo_ring_of_z10_model(z10_over_z10):
    s = z10_over_z10.endos
    assert s.size == 10
    # multiplication maps sorted by table: index d is x -> d*x
    assert all(s.maps[d] == tuple(d * x % 10 for x in range(10)) for d in range(10))
    assert s.idempotents() == {0, 1, 5, 6}
    # under that indexing S literally carries the Z10 tables
    z10 = mo.build_zn(10)
    assert s.add == z10.add and s.mul == z10.mul


def test_endo_ring_trivial_module():
    s = mo.endo_ring(mo.build_zm_over_zn(1, 5))
    assert s.size == 1 and s.zero == s.one


def test_endo_ring_noncommutative(klein_four):
    s = klein_four.endos
    assert s.size == 16
    assert not s.is_commutative()
    assert s.involution is None  # no automatic involution off the commutative case
    s.validate()


def test_table_index_is_built_on_the_first_index_of():
    """S derived from one generator is looked up by generator value, so the suite builds no
    table index there; an S that was not derived builds it on its first index_of."""
    for M in (mo.build_zm_over_zn(6, 30),
              mo.build_ring_as_module(mo.build_product(mo.build_zn(2), mo.build_zn(3)))):
        ctx = mo.ModuleContext(M)
        mo.run_suite([ctx])
        assert ctx.endos.by_generator is not None and "_index" not in vars(ctx.endos)
    s = mo.endo_ring(mo.build_module_from_tables(mo.build_zn(2), *klein_four_tables()))
    assert s.by_generator is None and "_index" not in vars(s)
    assert [s.index_of(iter(t)) for t in s.maps] == list(range(s.size))
    assert "_index" in vars(s)


def test_smash_examples(z6_over_z30):
    m, s = z6_over_z30.module, z6_over_z30.endos
    phi = next(p for p in z6_over_z30.dual if p[1] == 5)
    idx = mo.smash(m, s, 2, phi)
    assert s.maps[idx] == tuple(4 * x % 6 for x in range(6))
    assert mo.smash(m, s, 0, phi) == s.zero


def test_smash_idempotent_on_regular_witness(z6_over_z30):
    m, s = z6_over_z30.module, z6_over_z30.endos
    for x in range(m.size):
        for phi in z6_over_z30.dual:
            if m.act(x, phi[x]) == x:
                f = mo.smash(m, s, x, phi)
                assert s.mul[f][f] == f


def test_smash_square_law(z6_over_z30, z10_over_z10):
    """smash(m, phi)^2 = smash(m.phi(m), phi) for every pair."""
    for ctx in (z6_over_z30, z10_over_z10):
        m, s = ctx.module, ctx.endos
        for x in range(m.size):
            for phi in ctx.dual:
                f = mo.smash(m, s, x, phi)
                g = mo.smash(m, s, m.act(x, phi[x]), phi)
                assert s.mul[f][f] == g


def test_left_ann_S(z10_over_z10):
    s = z10_over_z10.endos
    assert z10_over_z10.l_S[2] == {0, 5}
    assert z10_over_z10.l_S[0] == frozenset(range(10))
    # l_S(m) is a left ideal: closed under post-composition
    for m in range(10):
        ann = z10_over_z10.l_S[m]
        for f in ann:
            for g in range(s.size):
                assert s.mul[g][f] in ann


def test_context_families_match_definitions(corpus, klein_four):
    """Each cached family against its set definition.  The corpus holds M2(Z2)_R, over
    a noncommutative ring, and F2^2 is non-cyclic with a noncommutative End, so a
    family that read rows for columns would differ from its definition there."""
    for ctx in (*corpus.values(), klein_four):
        M, S, R = ctx.module, ctx.endos, ctx.module.ring
        for m in range(M.size):
            assert ctx.l_S[m] == {f for f in range(S.size) if S.maps[f][m] == M.zero}
            assert ctx.r_R[m] == {r for r in range(R.size) if M.action[m][r] == M.zero}
            assert ctx.cyclic[m] == {M.action[m][r] for r in range(R.size)}


def test_is_hom_reference_check():
    m = mo.build_zm_over_zn(6, 30)
    assert mo.is_hom(m, m, tuple(2 * x % 6 for x in range(6)))
    assert not mo.is_hom(m, m, (0, 1, 1, 3, 4, 5))


# -- dumping S and the dual to the definition-file formats --------------------------


def test_endo_ring_dumps_as_ring_spec(z6_over_z30):
    spec = mo.ring_to_spec(z6_over_z30.endos)
    rebuilt = mo.ring_from_spec(spec)
    assert rebuilt.add == z6_over_z30.endos.add
    assert rebuilt.mul == z6_over_z30.endos.mul


def test_dual_dumps_as_module_spec(z6_over_z30):
    dual_mod = mo.dual_as_module(z6_over_z30.module)
    assert dual_mod.size == 6
    rebuilt = mo.module_from_spec(mo.module_to_spec(dual_mod))
    assert rebuilt.add == dual_mod.add and rebuilt.action == dual_mod.action


# -- S and M* tables: built from generator values, checked against their definitions --


def definitional_tables(maps, plus, times, others):
    """The tables of pointwise sums and of ``times`` on whole value tables, as indices."""
    index = {t: i for i, t in enumerate(maps)}
    return [[[index[tuple(plus[u][v] for u, v in zip(x, y))] for y in maps] for x in maps],
            [[index[times(x, y)] for y in others] for x in maps]]


def test_endo_and_dual_tables_match_definitions(corpus, klein_four):
    """On the default corpus, F2^2 (two generators, noncommutative S) and every Z_m/Z_n
    with n <= 24, among them Z2/Z4 and Z4/Z8."""
    cyclic = [mo.ModuleContext(mo.build_zm_over_zn(m, n))
              for n in range(1, 25) for m in range(1, n + 1) if n % m == 0]
    for ctx in (*corpus.values(), klein_four, *cyclic):
        M, S, R = ctx.module, ctx.endos, ctx.module.ring
        compose = definitional_tables(S.maps, M.add, lambda x, y: tuple(x[v] for v in y),
                                      S.maps)
        assert [S.add, S.mul] == compose, ctx.name
        if R.is_commutative():
            dual = mo.dual_as_module(M)
            act = definitional_tables(ctx.dual, R.add,
                                      lambda x, r: tuple(R.mul[u][r] for u in x), range(R.size))
            assert [dual.add, dual.action] == act, ctx.name


def test_endo_ring_is_hom_group_with_identity(corpus, klein_four, oracle_contexts):
    """S's elements are hom_group(M, M) in its order, and its one is the identity map."""
    for ctx in (*corpus.values(), klein_four, *oracle_contexts.values()):
        M = ctx.module
        S = mo.EndoRing(M)
        assert S.maps == tuple(mo.hom_group(M, M)), ctx.name
        assert S.maps[S.one] == tuple(range(M.size)), ctx.name
        assert ctx.endos.maps == S.maps, ctx.name


def test_dual_as_module_rejects_noncommutative_base():
    m = mo.build_ring_as_module(mo.build_matrix_ring(2))
    with pytest.raises(ValueError):
        mo.dual_as_module(m)


# -- enumeration completeness against the brute-force oracle ------------------------


@pytest.mark.parametrize("m,n", [(1, 5), (2, 2), (4, 4), (6, 6), (6, 30)])
def test_endos_match_brute_force_zmzn(m, n):
    add, action = zm_over_zn_tables(m, n)
    expected = brute_homs(add, action, add, action, m)
    module = mo.build_zm_over_zn(m, n)
    assert mo.hom_group(module, module) == expected


def test_endos_match_brute_force_klein(klein_four):
    add, action = klein_four_tables()
    expected = brute_homs(add, action, add, action, 4)
    assert len(expected) == 16
    assert mo.hom_group(klein_four.module, klein_four.module) == expected


@pytest.mark.parametrize("factors", [(2, 2), (2, 4)])
def test_ring_module_homs_match_brute_force(factors):
    ring = mo.build_product(*map(mo.build_zn, factors))
    M = mo.build_ring_as_module(ring)
    assert mo.hom_group(M, M) == brute_homs(ring.add, ring.mul, ring.add, ring.mul, ring.size)


@pytest.mark.parametrize("a,b,n,meets", [(4, 2, 4, True), (2, 4, 4, True), (4, 4, 4, False),
                                          (2, 6, 6, True), (3, 3, 3, False)])
def test_conductor_test_on_direct_sums(a, b, n, meets):
    """M* and End(M) of two-generator modules against filtering every function.  Where
    the second generator g meets the span A of the first outside 0 (g.2 = (2, 0) in
    Z4+Z2, g = (1, 1)), the conductor test compares u.r with values of h, not with 0."""
    add, action = direct_sum_tables(a, b, n)
    M = mo.build_module_from_tables(mo.build_zn(n), add, action, name=f"Z{a}+Z{b}/Z{n}")
    steps = list(homs._chain(M))
    assert len(steps) == 2
    assert any(gr != M.zero for _, gr in steps[1][2]) == meets  # (r, g.r) with g.r in A
    R = M.ring
    assert mo.hom_group(M, M) == brute_homs(add, action, add, action, M.size)
    assert mo.dual(M) == brute_homs(add, action, R.add, R.mul, R.size)


def test_f2_power_refused_at_third_generator():
    """F2^6 over Z2 keeps its generators in index order; the third step is over budget."""
    M = mo.build_module_from_tables(mo.build_zn(2), *f2_power_tables(6), name="F2^6")
    with pytest.raises(mo.SpecError, match=r"^Hom\(F2\^6, F2\^6\) needs up to 18874368 steps "
                       r"to extend along generator 4, beyond budget 16777216$"):
        mo.hom_group(M, M)


def test_dual_matches_brute_force_klein(klein_four):
    add, action = klein_four_tables()
    radd = [[0, 1], [1, 0]]
    rmul = [[0, 0], [0, 1]]
    expected = brute_homs(add, action, radd, rmul, 2)
    assert list(klein_four.dual) == expected


def test_dual_matches_brute_force_f2_cubed():
    add, action = f2_power_tables(3)
    module = mo.build_module_from_tables(mo.build_zn(2), add, action, name="F2^3")
    expected = brute_homs(add, action, [[0, 1], [1, 0]], [[0, 0], [0, 1]], 2)
    assert len(expected) == 8
    assert mo.dual(module) == expected


# -- enumeration of Hom(R_R, R_R) against left multiplications ----------------------

# Right-linear maps R_R -> R_R are exactly x -> a.x, one for each a in R.


@pytest.mark.parametrize("name", ORACLE_RINGS)
def test_homs_of_ring_module_are_left_multiplications(oracle_contexts, name):
    ctx = oracle_contexts[name]
    R, M = ctx.module.ring, ctx.module
    expected = sorted(tuple(R.mul[a][x] for x in range(R.size)) for a in range(R.size))
    assert mo.hom_group(M, M) == expected
    assert list(ctx.dual) == expected


def test_enumerated_homs_pass_reference_check(corpus, oracle_contexts):
    """The enumerator does not re-check its tables; is_hom does it here."""
    for ctx in (*corpus.values(), *oracle_contexts.values()):
        M = ctx.module
        for phi in ctx.dual:
            assert mo.is_hom(M, ctx.ring_module, phi), (ctx.name, phi)
        for f in ctx.endos.maps:
            assert mo.is_hom(M, M, f), (ctx.name, f)


# -- End of a cyclic module gR, derived through u: f -> f(g); on R_R, R relabelled --------

RELABELLED = ("Z1", "Z6", "Z2xZ2xZ4", "Z3xZ9", "Z2xZ2xZ2xZ2", "M2(Z2)")


def _ring_module(name):
    ring = (mo.build_matrix_ring(2) if name == "M2(Z2)" else
            reduce(mo.build_product, [mo.build_zn(int(f[1:])) for f in name.split("x")]))
    return mo.build_ring_as_module(ring)


def _relabelling(M, S):
    """p[i] = f_i(1), and q with q[p[i]] = i."""
    p = [f[M.ring.one] for f in S.maps]
    return p, [p.index(a) for a in range(M.size)]


@pytest.mark.parametrize("name", RELABELLED)
def test_relabelled_endo_ring_tables_match_definitions(name):
    """S's + and composition tables, read off R's through f -> f(g), are the pointwise sums
    and compositions of the maps; S is R relabelled by p: f -> f(1), and on Z2xZ2xZ4,
    Z3xZ9 and M2(Z2) p is not its own inverse."""
    M = _ring_module(name)
    S = mo.EndoRing(M)
    compose = definitional_tables(S.maps, M.add, lambda x, y: tuple(x[v] for v in y), S.maps)
    assert [S.add, S.mul] == compose
    p, q = _relabelling(M, S)
    assert sorted(p) == list(range(M.size))
    assert (name in ("Z1", "Z6")) == (p == list(range(M.size)))


@pytest.mark.parametrize("name", RELABELLED)
def test_relabelled_endo_ring_matches_validated_ring(name):
    """zero, one, neg, the involution and commutativity are those that a full
    FiniteRing.__init__ finds on the same tables."""
    S = mo.EndoRing(_ring_module(name))
    fresh = mo.FiniteRing(S.add, S.mul)
    assert (S.zero, S.one, S.neg, S.involution, S.is_commutative()) == (
        fresh.zero, fresh.one, fresh.neg, fresh.involution, fresh.is_commutative())
    assert S.size == fresh.size and S.name == f"End({S.module.name})"


@pytest.mark.parametrize("tamper", ["not determined by f(g)", "u repeats", "u misses"])
@pytest.mark.parametrize("name", ["Z2xZ2xZ4", "Z6/Z30", "Z4/Z8"])
def test_relabelling_checks_every_hom(monkeypatch, name, tamper):
    """A Hom(gR, gR) that is not g.r -> u.r for each u with u.r_R(g) = 0, each once, is an
    internal fault: AssertionError, before any table of S is built."""
    M = (mo.build_zm_over_zn(*map(int, name[1:].split("/Z"))) if "/" in name
         else _ring_module(name))
    [g] = mo.generating_set(M)
    maps = [list(f) for f in mo.hom_group(M, M)]
    if tamper == "not determined by f(g)":  # f(g) kept, so u is still a bijection
        f = maps[-1]
        x = next(x for x in range(M.size) if x != g and f[x] != f[g])
        f[x] = f[g]
    elif tamper == "u repeats":
        maps[1] = maps[2]
    else:
        del maps[3]
    monkeypatch.setattr(homs, "hom_group", lambda *_: sorted(map(tuple, maps)))
    installed = []
    monkeypatch.setattr(mo.FiniteRing, "_install", lambda *args, **_: installed.append(args))
    with pytest.raises(AssertionError):
        mo.EndoRing(M)
    assert installed == []


def test_ring_module_with_involution_is_checked():
    """An involution given for End(R_R) is checked like any other: on M2(Z2)_R the
    identity is not anti-multiplicative, a non-self-inverse permutation is refused, and
    the transpose carried over by p is accepted."""
    M = _ring_module("M2(Z2)")
    p, q = _relabelling(M, mo.EndoRing(M))
    with pytest.raises(mo.AxiomError, match="anti-multiplicative"):
        mo.EndoRing(M, involution=list(range(M.size)))
    cycle = [*range(1, M.size), 0]
    with pytest.raises(mo.AxiomError, match="self-inverse"):
        mo.EndoRing(M, involution=cycle)
    transpose = [q[M.ring.involution[a]] for a in p]
    S = mo.EndoRing(M, involution=transpose)
    assert S.involution == transpose and S.projection_pool == tuple(
        sorted(q[a] for a in M.ring.projection_pool))
    assert mo.EndoRing(_ring_module("Z6"), involution=list(range(6))).involution == list(range(6))
    with pytest.raises(mo.AxiomError):
        mo.EndoRing(_ring_module("Z6"), involution=[1, 0, 2, 3, 4, 5])
