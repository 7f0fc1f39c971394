"""Rings and modules that are ones by theorem are derived: the builtin builders and S of a
cyclic module install closed-form tables and check nothing.  Tables a user supplies, and
every given involution, are checked in full.  The checks move here: each derived object
against the validated path on its own tables, and against relabelled copies of it."""

import random
from functools import reduce

import pytest

import modorder as mo

from oracles import f2_power_spec, klein_four_tables, relabel, zm_over_zn_tables


def _spy_validate(monkeypatch, cls):
    """The objects of cls whose validate() runs from here on, in order."""
    validated, validate = [], cls.validate
    monkeypatch.setattr(cls, "validate", lambda self: validated.append(self) or validate(self))
    return validated


def _ring(name):
    return (mo.build_matrix_ring(2) if name == "M2(Z2)" else
            reduce(mo.build_product, [mo.build_zn(int(f[1:])) for f in name.split("x")]))


def test_only_given_tables_and_involutions_validate_rings(monkeypatch):
    z6 = mo.build_ring_as_module(mo.build_zn(6))
    klein = mo.build_module_from_tables(mo.build_zn(2), *klein_four_tables())
    cyclic = [mo.build_zm_over_zn(6, 30), mo.build_zm_over_zn(4, 8), z6,
              *(mo.build_ring_as_module(_ring(name)) for name in ("Z2xZ2xZ4", "M2(Z2)"))]
    validated = _spy_validate(monkeypatch, mo.FiniteRing)
    derived = [mo.build_zn(64), mo.build_product(mo.build_zn(2), mo.build_zn(3)),
               mo.build_matrix_ring(3),
               mo.ring_from_spec({"kind": "product", "factors": [{"kind": "Zn", "n": 2},
                                                                 {"kind": "matrix2", "p": 2}]}),
               *map(mo.EndoRing, cyclic), mo.EndoRing(mo.build_zm_over_zn(1, 5))]
    assert validated == [] and len(derived) == 10
    checked = [mo.build_ring_from_tables(z6.ring.add, z6.ring.mul),
               mo.ring_from_spec(mo.ring_to_spec(z6.ring)),
               mo.EndoRing(z6, involution=list(range(6))),
               mo.EndoRing(cyclic[0], involution=list(range(6))),
               mo.EndoRing(klein)]
    assert validated == checked


def test_only_given_tables_validate_modules(monkeypatch):
    z6 = mo.build_zn(6)
    validated = _spy_validate(monkeypatch, mo.FiniteModule)
    derived = [mo.build_zm_over_zn(6, 6), mo.build_zm_over_zn(2, 6), mo.build_ring_as_module(z6),
               mo.module_from_spec({"kind": "ZmOverZn", "m": 4, "n": 8}),
               mo.module_from_spec({"kind": "ringAsModule", "ring": {"kind": "Zn", "n": 10}})]
    assert validated == [] and derived[0].is_ring_as_module()
    checked = [mo.build_module_from_tables(z6, *zm_over_zn_tables(2, 6)),
               mo.module_from_spec(f2_power_spec(2))]
    assert validated == checked


def _facts(ring):
    return (ring.add, ring.mul, ring.zero, ring.one, ring.neg, ring.involution,
            ring.is_commutative())


def _validated_twin(ring):
    """FiniteRing on the same tables, given the involution unless the derived ring says it
    is commutative: then the validated path finds commutativity and the identity itself."""
    return mo.FiniteRing(ring.add, ring.mul,
                         involution=None if ring.is_commutative() else ring.involution)


def test_derived_rings_match_the_validated_path():
    m2 = mo.build_matrix_ring(2)
    rings = [*map(mo.build_zn, range(1, 65)),
             *(mo.build_product(mo.build_zn(a), mo.build_zn(b))
               for a in range(1, 65) for b in range(1, 64 // a + 1)),
             m2, mo.build_matrix_ring(3), mo.build_product(mo.build_zn(2), m2)]
    for ring in rings:
        assert _facts(ring) == _facts(_validated_twin(ring)), ring.name
        ring.validate()


def test_derived_modules_and_endo_rings_match_the_validated_path():
    for n in range(1, 65):
        for m in (m for m in range(1, n + 1) if n % m == 0):
            M = mo.build_zm_over_zn(m, n)
            twin = mo.FiniteModule(M.ring, M.add, M.action)
            assert (M.add, M.action, M.zero, M.neg) == (twin.add, twin.action, twin.zero,
                                                        twin.neg), M.name
            M.validate()
            S = mo.EndoRing(M)
            assert _facts(S) == _facts(_validated_twin(S)), S.name
            S.validate()


def test_ring_as_module_holds_exactly_when_the_tables_are_the_rings():
    """is_ring_as_module() is one identity test, as __init__ installs the ring's own tables
    whenever the given ones equal them: R_R built directly, as Z6/Z6, from a tables spec,
    and relabelled (by the identity, and by a shift) through the validated path."""
    R, z6 = _ring("Z2xZ4"), mo.build_zn(6)
    spec = {"kind": "tables", "name": "Z6", "ring": {"kind": "Zn", "n": 6},
            "add": [list(row) for row in z6.add], "action": [list(row) for row in z6.mul]}
    ident, shift = list(range(R.size)), [(x + 1) % R.size for x in range(R.size)]
    modules = [mo.build_ring_as_module(R), mo.build_zm_over_zn(6, 6),
               mo.build_zm_over_zn(3, 6), mo.module_from_spec(spec)]
    modules += [mo.build_module_from_tables(R, relabel(R.add, s, s, s),
                                            relabel(R.mul, s, ident, s)) for s in (ident, shift)]
    assert [M.is_ring_as_module() for M in modules] == [True, True, False, True, True, False]
    for M in modules:
        assert M.is_ring_as_module() == (M.add == M.ring.add and M.action == M.ring.mul)


# -- answers do not depend on index order ---------------------------------------------

INVARIANCE_MEMBERS = ("Z6/Z30", "Z4/Z8", "Z2xZ4", "Z3xZ9", "M2(Z2)")


def _relabelled(M, rng):
    """M with its ring's elements moved by a random pi and its own by sigma (pi itself on
    R_R), built through the validated path, with sigma."""
    R = M.ring
    pi = rng.sample(range(R.size), R.size)
    sigma = pi if M.is_ring_as_module() else rng.sample(range(M.size), M.size)
    ring = mo.build_ring_from_tables(
        relabel(R.add, pi, pi, pi), relabel(R.mul, pi, pi, pi),
        involution=R.involution and relabel([R.involution], [0], pi, pi)[0])
    return mo.build_module_from_tables(ring, relabel(M.add, sigma, sigma, sigma),
                                       relabel(M.action, sigma, pi, sigma), name=M.name), sigma


@pytest.mark.parametrize("name", INVARIANCE_MEMBERS)
def test_answers_do_not_depend_on_index_order(name):
    """Each relation's rows move with sigma, and the suite's outcomes stay; witnesses and
    check counts may not, as pools and generators follow index order."""
    M = (mo.build_zm_over_zn(*map(int, name[1:].split("/Z"))) if "/" in name
         else mo.build_ring_as_module(_ring(name)))
    ctx, rng = mo.ModuleContext(M), random.Random(INVARIANCE_MEMBERS.index(name))
    rows = {tag: mo.relation_matrix(ctx, tag).rows for tag in mo.RELATIONS}
    outcomes = [(r.law, r.outcome) for r in mo.run_suite([ctx])]
    for _ in range(2):
        moved, sigma = _relabelled(M, rng)
        moved_ctx = mo.ModuleContext(moved)
        assert moved.is_ring_as_module() == M.is_ring_as_module()
        for tag, before in rows.items():
            after = [None] * M.size
            for x, mask in enumerate(before):
                after[sigma[x]] = mask if mask is None else sum(
                    1 << sigma[y] for y in range(M.size) if mask >> y & 1)
            assert mo.relation_matrix(moved_ctx, tag).rows == after, tag
        assert [(r.law, r.outcome) for r in mo.run_suite([moved_ctx])] == outcomes
