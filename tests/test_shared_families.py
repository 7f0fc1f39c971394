"""Families that are one computation on one table are computed once and shared, and each
shared object still equals its own definition.

- A ring's left annihilators, left ideals and column preimages are R^op's right ones: on a
  commutative ring, its own, as the same objects; a noncommutative ring keeps both sides.
- R_R is its own ring module, so M* and End(M) read one Hom(M, M) search, and its r_R is
  the ring's.
- S of a cyclic gR over a commutative R has each f = x -> x.r_f, so f's fibre masks, ker f
  the one at 0, are M's column_preimages at r_f; any other S reads them off its maps.
- minus-idem and the three star orders share one clause-parts tuple, and the context keeps
  one OR of columns for each part and pool, built once.
- Every clause part returns its columns with their OR; minus-dual's columns, made at its
  witness cells only, are still its set definition.
- ring-annih's q part is its p part on the opposite ring R^op, kept there: on a commutative
  ring, R itself, so one evaluation; and on R_R minus-idem's a part is the ring's q part.
- Every family is a lazy attribute, computed once per object and kept in its __dict__.
"""

from functools import reduce
from operator import or_

import pytest

import modorder as mo
from modorder import homs, orders
from modorder.orders import RELATIONS
from modorder.rings import RING_RELATIONS, _annih_p as rings_annih_p, _annih_q as rings_annih_q
from modorder.tables import lazy, preimage_masks
from modorder.verdicts import bits

from oracles import (ORACLE_RINGS, brute_homs, definitional_parts, klein_four_tables,
                     module_tables, right_annihilator_parts)


def _ring(name: str) -> mo.FiniteRing:
    if name == "M2(Z2)":
        return mo.build_matrix_ring(2)
    return reduce(mo.build_product, [mo.build_zn(int(f[1:])) for f in name.split("x")])


def _masks(sets):
    return tuple(sum(1 << b for b in s) for s in sets)


def _assert_ring_families_defined(R: mo.FiniteRing):
    els, mul, zero = range(R.size), R.mul, R.zero
    assert R.left_anns == tuple(frozenset(x for x in els if mul[x][a] == zero) for a in els)
    assert R.right_anns == tuple(frozenset(x for x in els if mul[a][x] == zero) for a in els)
    assert R.left_ideals == tuple(frozenset(mul[x][a] for x in els) for a in els)
    assert R.right_ideals == tuple(frozenset(mul[a][x] for x in els) for a in els)
    assert R.row_preimages == tuple(
        _masks([[b for b in els if mul[a][b] == v] for v in els]) for a in els)
    assert R.column_preimages == tuple(
        _masks([[b for b in els if mul[b][a] == v] for v in els]) for a in els)


COMMUTATIVE = ("Z6", "Z2xZ3", *(name for name in ORACLE_RINGS if name != "M2(Z2)"))


@pytest.mark.parametrize("name", COMMUTATIVE)
def test_commutative_ring_left_families_are_the_right_ones(name):
    R = _ring(name)
    assert R.is_commutative()
    assert R.left_anns is R.right_anns
    assert R.left_ideals is R.right_ideals
    assert R.column_preimages is R.row_preimages
    _assert_ring_families_defined(R)


def test_noncommutative_ring_keeps_both_sides():
    R = mo.build_matrix_ring(2)
    assert not R.is_commutative()
    assert R.left_anns != R.right_anns
    assert R.left_ideals != R.right_ideals
    assert R.column_preimages != R.row_preimages
    _assert_ring_families_defined(R)


def test_endo_ring_of_commutative_ring_module_shares_its_families():
    S = mo.ModuleContext(mo.build_ring_as_module(_ring("Z2xZ3"))).endos
    assert S.is_commutative()
    assert S.left_anns is S.right_anns and S.column_preimages is S.row_preimages
    _assert_ring_families_defined(S)


def _ring_module_contexts():
    """R_R of every member of the default corpus that is one, and of ORACLE_RINGS, fresh."""
    members = [ctx.module for ctx in mo.default_corpus() if ctx.module.is_ring_as_module()]
    members += [mo.build_ring_as_module(_ring(name)) for name in ORACLE_RINGS]
    return [mo.ModuleContext(M) for M in members]


def _counting_extend(monkeypatch):
    calls, extend = [], homs._extend
    monkeypatch.setattr(homs, "_extend", lambda *args: calls.append(args) or extend(*args))
    return calls


def test_ring_module_searches_hom_once(monkeypatch):
    """M* and End(M) of R_R are one search of |R| candidates (R_R has one generator), and
    both equal every additive, linear map found by filtering."""
    contexts = _ring_module_contexts()
    assert {"Z6/Z6", "Z10/Z10", "Z2xZ3_R", "M2(Z2)_R"} <= {ctx.name for ctx in contexts}
    for ctx in contexts:
        M, R = ctx.module, ctx.module.ring
        calls = _counting_extend(monkeypatch)
        dual, endos = ctx.dual, ctx.endos.maps
        assert len(calls) == R.size, ctx.name
        assert ctx.ring_module is M
        assert list(dual) == list(endos) == brute_homs(R.add, R.mul, R.add, R.mul, R.size)


def test_module_over_larger_ring_searches_twice(monkeypatch):
    """Z6/Z30 is not R_R: Hom(M, M) and Hom(M, Z30) are two searches of one generator."""
    ctx = mo.ModuleContext(mo.build_zm_over_zn(6, 30))
    calls = _counting_extend(monkeypatch)
    ctx.dual, ctx.endos
    assert len(calls) == ctx.module.size + ctx.module.ring.size == 36
    assert ctx.ring_module is not ctx.module


def test_ring_module_families_are_the_rings():
    for ctx in _ring_module_contexts():
        M, R, S = ctx.module, ctx.module.ring, ctx.endos
        assert ctx.r_R is R.right_anns
        assert ctx.r_R == tuple(mo.right_ann(M, m) for m in range(M.size))
        assert S.preimages == preimage_masks(S.maps, M.size), ctx.name


def _cyclic_over_commutative():
    """Every Z_m/Z_n with 1 <= m | n <= 64, 1 < n, and the commutative R_R of the default
    corpus and of ORACLE_RINGS, fresh."""
    modules = [mo.build_zm_over_zn(m, n) for n in range(2, 65) for m in range(1, n + 1)
               if n % m == 0]
    modules += [ctx.module for ctx in _ring_module_contexts() if ctx.module.ring.is_commutative()]
    return [mo.ModuleContext(M) for M in modules]


def _spied_preimage_masks(monkeypatch):
    calls, masks = [], homs.preimage_masks
    monkeypatch.setattr(homs, "preimage_masks",
                        lambda tables, size: calls.append((tables, size)) or masks(tables, size))
    return calls


def test_endo_fibres_of_a_cyclic_module_over_a_commutative_ring_are_ms_columns(monkeypatch):
    """S of gR over a commutative R: each f is x -> x.r_f with g.r_f = f(g), so its fibre
    masks are M's column_preimages at r_f, the same object, and equal their definition.  The
    zero module, which has no greedy generator, is 0R, with g = 0."""
    calls, contexts = _spied_preimage_masks(monkeypatch), _cyclic_over_commutative()
    assert len(contexts) > 200 and {"Z6/Z30", "Z64/Z64", "Z2xZ3_R", "Z1/Z5"} <= {
        c.name for c in contexts}
    for ctx in contexts:
        M, S = ctx.module, ctx.endos
        (g,) = homs.generating_set(M) or [0]
        for f, t in enumerate(S.maps):
            r_f = M.action[g].index(t[g])
            assert list(t) == [M.action[x][r_f] for x in range(M.size)], (ctx.name, f)
            assert S.preimages[f] is M.column_preimages[r_f], (ctx.name, f)
        assert S.preimages == preimage_masks(S.maps, M.size), ctx.name
    assert calls == []


@pytest.mark.parametrize("build", [
    lambda: mo.ModuleContext(mo.build_ring_as_module(_ring("M2(Z2)"))),
    lambda: mo.ModuleContext(mo.build_module_from_tables(mo.build_zn(2), *klein_four_tables(),
                                                         name="F2^2")),
    lambda: mo.ModuleContext(mo.build_zm_over_zn(6, 30), endo_involution=list(range(6))),
    lambda: mo.ModuleContext(mo.build_zm_over_zn(1, 5), endo_involution=[0]),
], ids=["M2(Z2)_R", "F2^2", "Z6/Z30-involution", "Z1/Z5"])
def test_other_endo_fibres_are_read_off_the_maps(monkeypatch, build):
    """A noncommutative R, a non-cyclic M and an S given an involution take preimage_masks
    over S.maps, once.  The zero module's S is derived from generator 0 unless, as here, it
    is given an involution."""
    calls, ctx = _spied_preimage_masks(monkeypatch), build()
    S = ctx.endos
    assert S.preimages == preimage_masks(S.maps, ctx.module.size)
    assert S.preimages is S.preimages and calls == [(S.maps, ctx.module.size)]


def _small_contexts():
    contexts = mo.default_corpus()
    contexts.append(mo.ModuleContext(mo.build_module_from_tables(
        mo.build_zn(2), *klein_four_tables(), name="F2^2")))
    contexts.append(mo.ModuleContext(mo.build_ring_as_module(_ring("Z2xZ2xZ4"))))
    contexts.append(mo.ModuleContext(mo.build_zm_over_zn(4, 8)))
    return contexts


def test_dual_part_is_its_definition():
    """_dual_part's column of each t of M*, cell by cell, and its OR are minus-dual's set
    definition (m1 = m1.t(m1), t(m1) = t(m2) and m1.v = m2.v for every v in tM), though
    agreement is read at the t(g) of the module generators g only; dual_masks holds the
    fibres {x : t(x) = r} of each t.  F2^2 has two generators."""
    for ctx in _small_contexts():
        M, R = ctx.module, ctx.module.ring
        assert ctx.dual_masks == {t: _masks([[x for x in range(M.size) if t[x] == r]
                                             for r in range(R.size)]) for t in ctx.dual}
        definition = [at_x for at_x, in definitional_parts("minus-dual", module_tables(ctx))]
        or_row, columns = orders._dual_part(ctx, ctx.dual)
        assert [list(cells) for cells in zip(*columns)] == [
            [at_x[t] for t in ctx.dual] for at_x in definition], ctx.name
        assert or_row == [reduce(or_, at_x.values()) for at_x in definition], ctx.name


def test_each_part_returns_the_or_of_its_columns():
    """Every part of every module and ring relation, on each of its pools and on each
    one-element pool of a replay, returns one column per pool element and, at each x, the
    OR of the columns."""
    for ctx in _small_contexts():
        for rel, target in [*((rel, ctx) for rel in RELATIONS.values()),
                            *((rel, ctx.module.ring) for rel in RING_RELATIONS.values())]:
            for part, pool in zip(rel.parts, rel.pools(target) or ()):
                for each in (pool, *((p,) for p in pool)):
                    or_row, columns = part(target, each)
                    assert len(columns) == len(each), (ctx.name, rel.tag, each)
                    assert or_row == [reduce(or_, cells, 0) for cells in zip(*columns)], (
                        ctx.name, rel.tag, each)


IDEMPOTENT_FORMS = ("minus-idem", "rstar", "lstar", "star")


@pytest.mark.parametrize("build, shared", [
    (lambda: mo.build_zm_over_zn(6, 30), True),
    (lambda: mo.build_ring_as_module(_ring("Z2xZ3")), True),
    (lambda: mo.build_ring_as_module(_ring("M2(Z2)")), False),
], ids=["Z6/Z30", "Z2xZ3_R", "M2(Z2)_R"])
def test_idempotent_form_rows_match_fresh_rows(build, shared):
    """Each of the four matrices has the rows that its own relation gives on a fresh
    context, and its own relation.  Under identity involutions every idempotent is a
    projection, so the four read one OR for each part; over M2(Z2) the transpose has fewer
    projections, and rstar's rows differ from minus-idem's."""
    ctx = mo.ModuleContext(build())
    matrices = {tag: mo.relation_matrix(ctx, tag) for tag in IDEMPOTENT_FORMS}
    for tag, matrix in matrices.items():
        rel = RELATIONS[tag]
        assert matrix.rel is rel
        assert matrix.rows == rel.rows(mo.ModuleContext(ctx.module)), tag
    parts = {rel.parts for rel in map(RELATIONS.get, IDEMPOTENT_FORMS)}
    assert len(parts) == 1
    f_part, a_part = parts.pop()
    # M2(Z2)'s lstar and star have no involution on S, and rstar's a-pool is R's projections
    assert [len(ctx.clause_memo[part]) for part in (f_part, a_part)] == [1, 1 if shared else 2]
    if not shared:
        assert matrices["rstar"].rows != matrices["minus-idem"].rows
    for tag in IDEMPOTENT_FORMS:  # the witnesses keep each relation's projection flags
        matrix = matrices[tag]
        x, y = next(((x, y) for x, row in enumerate(matrix.rows) if row
                     for y in bits(row)), (None, None))
        if x is not None:
            witness = matrix.verdict(x, y).witness
            assert (witness.f_projection, witness.a_projection) == (
                tag in ("lstar", "star"), tag in ("rstar", "star"))


def test_memo_keeps_one_or_for_each_part_and_pool(monkeypatch):
    """A relation with minus-idem's parts but another a-pool of the same length builds its
    own ORs beside minus-idem's, and leaves minus-idem's rows as they were."""
    idem = RELATIONS["minus-idem"]
    ctx = mo.ModuleContext(mo.build_ring_as_module(_ring("Z2xZ3")))
    S, R = ctx.endos, ctx.module.ring
    other = tuple(R.element_pool[:len(R.idempotent_pool)])
    assert other != R.idempotent_pool
    probe = idem._replace(tag="probe", pools=lambda ctx: (S.idempotent_pool, other))
    monkeypatch.setitem(orders.RELATIONS, "probe", probe)
    monkeypatch.setitem(orders._BY_TAG, "probe", probe)
    shared = mo.relation_matrix(ctx, "minus-idem").rows
    assert mo.relation_matrix(ctx, "probe").rows == probe.rows(mo.ModuleContext(ctx.module))
    assert mo.relation_matrix(ctx, "probe").rows != shared
    assert mo.relation_matrix(ctx, "minus-idem").rows == shared
    assert [[entry[0] for entry in ctx.clause_memo[part]] for part in idem.parts] == [
        [S.idempotent_pool], [R.idempotent_pool, other]]


class _CountedTable(tuple):
    """A value table that counts the times it is hashed."""

    hashes = 0

    def __hash__(self):
        type(self).hashes += 1
        return super().__hash__()


@pytest.mark.parametrize("build", [lambda: mo.build_zm_over_zn(6, 30),
                                   lambda: mo.build_ring_as_module(_ring("M2(Z2)"))],
                         ids=["Z6/Z30", "M2(Z2)_R"])
def test_second_minus_dual_matrix_builds_no_column(monkeypatch, build):
    """A second minus-dual matrix, as hasse and find_converse_gap ask for, reads the OR kept
    on the context: it calls no part and hashes no table of M*."""
    ctx = mo.ModuleContext(build())
    ctx.dual = tuple(map(_CountedTable, ctx.dual))
    calls, (part,) = [], orders.minus_le_dual.parts
    spy = orders._BY_TAG["minus-dual"]._replace(
        parts=(lambda ctx, pool: calls.append(pool) or part(ctx, pool),))
    monkeypatch.setitem(orders._BY_TAG, "minus-dual", spy)
    first = mo.relation_matrix(ctx, "minus-dual").rows
    assert calls == [ctx.dual]
    _CountedTable.hashes = 0
    assert mo.relation_matrix(ctx, "minus-dual").rows == first
    assert calls == [ctx.dual] and _CountedTable.hashes == 0
    assert first == RELATIONS["minus-dual"].rows(mo.ModuleContext(ctx.module))


def test_equal_tables_share_preimage_masks():
    """Columns r and r + 6 of Z6 over Z30 are one table, so they share one tuple of masks."""
    M = mo.build_zm_over_zn(6, 30)
    cols = M.column_preimages
    assert all(cols[r] is cols[r % 6] for r in range(30))
    assert cols == tuple(_masks([[x for x in range(M.size) if M.action[x][r] == v]
                                 for v in range(M.size)]) for r in range(30))


def _lazy_families():
    """Each class's lazy families, by class, with their names."""
    classes = (mo.FiniteRing, mo.FiniteModule, mo.EndoRing, mo.ModuleContext, mo.RelationMatrix)
    return {cls: {name: attr for name, attr in vars(cls).items() if isinstance(attr, lazy)}
            for cls in classes}


def test_a_lazy_family_is_computed_once_and_kept_on_its_object(monkeypatch):
    """Every lazy family of the package, EndoRing._index (assigned from a lambda) among them,
    runs its function once per object and keeps the value in vars(obj) under its name; read
    on its class it is the descriptor.  No family is a functools.cached_property."""
    families = _lazy_families()
    assert sum(map(len, families.values())) == 30 and "_index" in families[mo.EndoRing]
    calls = []
    for cls, named in families.items():
        for name, family in named.items():
            assert getattr(cls, name) is family and family.name == name
            monkeypatch.setattr(family, "func", lambda obj, func=family.func, name=name: (
                calls.append((id(obj), name)) or func(obj)))
    for _ in range(2):  # fresh objects each time: each computes its own families once
        ctx = mo.ModuleContext(mo.build_ring_as_module(_ring("Z2xZ3")))
        matrix = mo.relation_matrix(ctx, "minus-dual")
        objects = (ctx.module.ring, ctx.module, ctx.endos, ctx, matrix)
        calls.clear()
        for obj, cls in zip(objects, families):
            for name in families[cls] if cls is not mo.EndoRing else {
                    **families[mo.FiniteRing], **families[mo.EndoRing]}:
                value = getattr(obj, name)
                assert getattr(obj, name) is value is vars(obj)[name], (cls.__name__, name)
        assert len(calls) == len(set(calls)), calls
    S = ctx.endos
    assert S.index_of(S.maps[3]) == 3 and vars(S)["_index"] == {t: i for i, t in enumerate(S.maps)}


def _commutative_rings(products_strata):
    """The commutative rings of ORACLE_RINGS, Z1 to Z64 and the products strata."""
    rings = [_ring(name) for name in ORACLE_RINGS if name != "M2(Z2)"]
    rings += [*map(mo.build_zn, range(1, 65)), *(ctx.module.ring for ctx in products_strata)]
    return [R for R in rings if R.is_commutative()]


def _kept(target, part, pool):
    (entry,) = [entry for entry in vars(target)["clause_memo"][part] if entry[0] == pool]
    return entry


def test_annih_q_is_annih_p_on_a_commutative_ring(products_strata):
    """On a commutative ring, ring-annih's q part returns the OR and columns that its p part
    keeps, the same objects, on the idempotents and on each one-element pool of a replay;
    they equal the q part computed on its own, from the columns of mul and r(a)."""
    rings = _commutative_rings(products_strata)
    assert len(rings) == 3 + 64 + 30  # all but the strata's M2(Z2)
    for R in rings:
        for pool in (R.idempotent_pool, *((q,) for q in R.idempotent_pool)):
            or_row, columns = rings_annih_q(R, pool)
            entry = _kept(R, rings_annih_p, pool)
            assert or_row is entry[1] and columns is entry[2], R.name
            assert (or_row, columns) == right_annihilator_parts(R.mul, R.zero, pool), R.name


@pytest.mark.parametrize("p", [2, 3])
def test_annih_q_is_annih_p_on_the_opposite_ring(p):
    """On M2(Z_p), ring-annih's q part is its p part on R^op, kept in R^op's memo: R keeps
    the same OR and columns as its q part, and each column is the q clause by definition."""
    R = mo.build_matrix_ring(p)
    RING_RELATIONS["ring-annih"].rows(R)
    pool = R.idempotent_pool
    entry, kept = _kept(R.opposite, rings_annih_p, pool), _kept(R, rings_annih_q, pool)
    assert entry[1] is kept[1] and entry[2] is kept[2]
    q_parts = [at_x[1] for at_x in definitional_parts("ring-annih", ring=(R.add, R.mul))]
    assert [[column[x] for column in entry[2]] for x in range(R.size)] == [
        [masks[q] for q in pool] for masks in q_parts]
    assert entry[1] == [reduce(or_, masks.values()) for masks in q_parts]


def test_annih_q_builds_no_second_opposite():
    """R^op's left annihilators are R's right ones: after the suite on M2(Z2)_R, R^op holds
    R's own right_anns tuple and has built no (R^op)^op, a second transpose of mul."""
    ctx = mo.ModuleContext(mo.build_ring_as_module(mo.build_matrix_ring(2)))
    mo.run_suite([ctx])
    R = ctx.module.ring
    assert "clause_memo" in vars(R.opposite) and "_opposite" not in vars(R.opposite)
    assert R.opposite.left_anns is R.right_anns


def test_a_annihilator_is_the_rings_q_part_on_r_r():
    """On R_R, minus-idem's a part returns the ring's kept ring-annih q part, the same
    objects, on the idempotents and the projections; it equals the a part computed on its
    own.  M2(Z2) is not commutative, and its transpose has fewer projections."""
    contexts = [ctx for ctx in mo.default_corpus() if ctx.module.is_ring_as_module()]
    assert [ctx.name for ctx in contexts] == ["Z6/Z6", "Z10/Z10", "Z2xZ3", "M2(Z2)"]
    for ctx in contexts:
        R, a_part = ctx.module.ring, orders.minus_le_idem.parts[1]
        for pool in (R.idempotent_pool, R.projection_pool):
            or_row, columns = a_part(ctx, pool)
            entry = _kept(R, rings_annih_q, pool)
            assert or_row is entry[1] and columns is entry[2], ctx.name
            assert (or_row, columns) == right_annihilator_parts(R.mul, R.zero, pool), ctx.name
    assert R.projection_pool != R.idempotent_pool
