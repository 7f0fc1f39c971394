"""Whole relation matrices against single queries, cell by cell, and the two routines
behind both: ``Relation.rows`` (the decision) and ``Relation.firsts`` (the witnesses)."""

import functools

import pytest

import modorder as mo
from modorder import laws, orders
from modorder.rings import RING_RELATIONS
from modorder.verdicts import bits

from oracles import (definitional_firsts, definitional_parts, definitional_rows,
                     klein_four_tables, module_tables)

MODULE_TAGS = tuple(orders.RELATIONS)


def _contexts():
    """The default corpus, two non-regular modules and F2^2 over Z2, whose
    noncommutative End carries no involution (lstar and star are not applicable)."""
    contexts = mo.default_corpus()
    contexts += [mo.ModuleContext(mo.build_zm_over_zn(2, 4), "Z2/Z4"),
                 mo.ModuleContext(mo.build_zm_over_zn(4, 8), "Z4/Z8")]
    add, action = klein_four_tables()
    klein = mo.build_module_from_tables(mo.build_zn(2), add, action, name="F2^2")
    return contexts + [mo.ModuleContext(klein, "F2^2")]


@pytest.fixture(scope="module")
def contexts():
    return _contexts()


def _assert_matches_search(matrix, search):
    n = matrix.size
    expected = [[search(x, y) for y in range(n)] for x in range(n)]
    assert matrix.verdicts == expected, matrix.relation
    assert matrix.rows == [sum(v.holds << y for y, v in enumerate(row)) if row[0].applicable
                           else None for row in expected]
    assert matrix.applicable == expected[0][0].applicable


def test_module_sweep_matches_search(contexts):
    for ctx in contexts:
        for tag in MODULE_TAGS:
            search = functools.partial(orders.RELATIONS[tag], ctx)
            _assert_matches_search(mo.relation_matrix(ctx, tag), search)


def test_ring_sweep_matches_search(contexts):
    for ctx in contexts:
        ring = ctx.module.ring
        for tag, relation in RING_RELATIONS.items():
            matrix = mo.relation_matrix(ctx, tag)
            assert matrix.size == ring.size
            _assert_matches_search(matrix, functools.partial(relation, ring))


def test_corpus_covers_every_case(contexts):
    """Each tag is applicable somewhere and not applicable somewhere else."""
    by_name = {ctx.name: ctx for ctx in contexts}
    assert not orders.is_regular_module(by_name["Z2/Z4"])[0]
    assert not orders.is_regular_module(by_name["Z4/Z8"])[0]
    for tag in ("lstar", "star"):
        assert not mo.relation_matrix(by_name["F2^2"], tag).applicable
        assert mo.relation_matrix(by_name["Z6/Z30"], tag).applicable
    assert mo.relation_matrix(by_name["F2^2"], "rstar").applicable


def test_sweep_parts_are_the_witness_parts(z6_over_z30):
    matrix = mo.relation_matrix(z6_over_z30, "minus-idem")
    for x, row in enumerate(matrix.verdicts):
        for y, v in enumerate(row):
            parts = matrix.parts[x].get(y)
            assert parts == (None if not v.holds else (v.witness.f, v.witness.a))


def _relations(ctx):
    """(relation, target) for every module tag over ctx and every ring tag over its ring."""
    ring = ctx.module.ring
    return ([(orders._BY_TAG[tag], ctx) for tag in MODULE_TAGS]
            + [(rel, ring) for rel in RING_RELATIONS.values()])


def test_first_is_the_least_covering_part_of_each_pool(contexts, oracle_contexts):
    """At each holding cell, ``firsts`` on the whole row gives the parts of the single
    query's witness, each the first element of its pool whose clause holds there by the
    set definition."""
    for ctx in (*contexts, *oracle_contexts.values()):
        tables, ring = module_tables(ctx), ctx.module.ring
        for rel, target in _relations(ctx):
            parts = (definitional_parts(rel.tag, tables) if target is ctx
                     else definitional_parts(rel.tag, ring=(ring.add, ring.mul)))
            if parts is None:
                assert rel.pools(target) is None, (ctx.name, rel.tag)
                continue
            expected = definitional_firsts(parts, definitional_rows(parts))
            for x, row in enumerate(rel.rows(target)):
                found = rel.firsts(target, x, row) if row else {}
                assert found == expected[x], (ctx.name, rel.tag, x)
                for y, parts in found.items():
                    assert rel.witness(*parts) == rel(target, x, y).witness


def test_sweep_ignores_rebound_relations(monkeypatch, z6_over_z30):
    """A profiler may replace RELATIONS entries by plain wrappers; the sweep reads
    the relations as defined and makes no call through them."""
    calls = []

    def counting(rel):
        def wrapper(ctx, x, y):
            calls.append(rel.tag)
            return rel(ctx, x, y)
        return wrapper

    for tag, rel in list(orders.RELATIONS.items()):
        monkeypatch.setitem(orders.RELATIONS, tag, counting(rel))
    for tag in MODULE_TAGS:
        matrix = laws.relation_matrix(z6_over_z30, tag)
        assert matrix.verdicts[2][5] == orders._BY_TAG[tag](z6_over_z30, 2, 5)
    assert calls == []
    assert [r.outcome for r in mo.run_suite([z6_over_z30])].count("fail") == 0


def test_unknown_tag_rejected(z6_over_z6):
    with pytest.raises(ValueError):
        mo.relation_matrix(z6_over_z6, "regular")
