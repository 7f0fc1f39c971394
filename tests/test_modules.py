import re
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

import modorder as mo
from modorder import homs, modules, orders
from modorder.modules import AxiomError, SpecError

from oracles import is_submodule, zm_over_zn_tables


def test_build_zm_over_zn_paper_module():
    m = mo.build_zm_over_zn(6, 30)
    assert m.size == 6 and m.ring.size == 30
    assert m.act(5, 7) == 5  # 5 * (7 mod 6)
    assert m.act(2, 10) == 2


@pytest.mark.parametrize("call, carrier", [
    (lambda M, ctx, x: modules.cyclic_submodule(M, x), "Z6/Z30"),
    (lambda M, ctx, x: modules.right_ann(M, x), "Z6/Z30"),
    (lambda M, ctx, x: orders.subset_cyclic(ctx, 0, x), "Z6/Z30"),
    (lambda M, ctx, x: homs.smash(M, ctx.endos, x, ctx.dual[1]), "Z6/Z30"),
    (lambda M, ctx, x: M.act(x, 1), "Z6/Z30"),
    (lambda M, ctx, x: M.ring.star(x), "Z30"),
    (lambda M, ctx, x: M.ring.sub(x, 0), "Z30"),
    (lambda M, ctx, x: M.ring.sub(0, x), "Z30"),
    (lambda M, ctx, x: M.sub(x, 0), "Z6/Z30"),
    (lambda M, ctx, x: M.sub(0, x), "Z6/Z30"),
    (lambda M, ctx, x: orders.kernel_summand(ctx, x, 0), "Z6/Z30"),
    (lambda M, ctx, x: orders.kernel_summand(ctx, 0, x), "End(Z6/Z30)"),
], ids=["cyclic_submodule", "right_ann", "subset_cyclic", "smash", "act", "star", "ring-sub-a",
        "ring-sub-b", "module-sub-x", "module-sub-y", "kernel_summand-m", "kernel_summand-s"])
def test_an_element_out_of_range_is_refused(call, carrier):
    """-1 is not read as the last element of a table, nor the size as an IndexError.
    End(Z6/Z30) has 6 elements."""
    M = mo.build_zm_over_zn(6, 30)
    ctx = mo.ModuleContext(M)
    size = 30 if carrier == "Z30" else 6
    for bad in (-1, size):
        with pytest.raises(ValueError,
                           match=rf"^element {bad} out of range for {re.escape(carrier)}$"):
            call(M, ctx, bad)
    call(M, ctx, size - 1)


def test_act_refuses_a_ring_element_out_of_range():
    M = mo.build_zm_over_zn(6, 30)
    for bad in (-1, 30):
        with pytest.raises(ValueError, match=rf"^element {bad} out of range for Z30$"):
            M.act(1, bad)


def test_zm_over_zn_rejects_non_divisor():
    with pytest.raises(SpecError):
        mo.build_zm_over_zn(4, 10)


@pytest.mark.parametrize("m, n", [(0, 4), (4, 0), (-2, 4)])
def test_zm_over_zn_rejects_a_modulus_below_one(m, n):
    with pytest.raises(SpecError, match="^moduli must be positive$"):
        mo.build_zm_over_zn(m, n)


@pytest.mark.parametrize("m,n,message", [
    (10 ** 5000, 10 ** 5000, "ring size <5001 digits> exceeds cap 256"),
    (10 ** 5000, 3, "action ill-defined: <5001 digits> does not divide 3"),
], ids=["both-huge", "m-huge"])  # ids, as pytest would print each int in full
def test_oversized_moduli_are_counted_not_echoed(m, n, message):
    with pytest.raises((AxiomError, SpecError)) as exc:
        mo.build_zm_over_zn(m, n)
    assert str(exc.value) == message


def test_ring_as_module():
    for build in (lambda: mo.build_zn(6), lambda: mo.build_matrix_ring(2),
                  lambda: mo.build_zn(1)):
        r = build()
        m = mo.build_ring_as_module(r)
        assert m.size == r.size
        assert m.action == r.mul


def test_ring_as_module_takes_the_ring_cap():
    """R_R is bounded by the ring cap of 256, not the module cap of 64, which holds a
    module given by other tables."""
    ring = reduce(mo.build_product, [mo.build_zn(2)] * 7)
    ctx = mo.ModuleContext(mo.build_ring_as_module(ring))
    assert ctx.module.size == len(ctx.dual) == ctx.endos.size == 128
    add, action = zm_over_zn_tables(65, 130)
    with pytest.raises(AxiomError, match="module size 65 exceeds cap 64"):
        mo.module_from_spec({"kind": "tables", "ring": {"kind": "Zn", "n": 130}, "size": 65,
                             "add": add, "action": action})


def test_module_from_tables_unitality_error():
    add, action = zm_over_zn_tables(6, 30)
    action[2][1] = 3  # breaks m.1 = m
    with pytest.raises(AxiomError, match="unitality"):
        mo.build_module_from_tables(mo.build_zn(30), add, action)


def test_module_from_tables_mixed_sizes():
    add, action = zm_over_zn_tables(6, 30)
    with pytest.raises(AxiomError, match="table"):
        mo.build_module_from_tables(mo.build_zn(30), add, action[:3])


def test_module_from_spec():
    m = mo.module_from_spec({"kind": "ZmOverZn", "m": 6, "n": 30})
    assert m.size == 6
    m = mo.module_from_spec({"kind": "ringAsModule", "ring": {"kind": "Zn", "n": 10}})
    assert m.size == 10
    with pytest.raises(SpecError):
        mo.module_from_spec({"kind": "nope"})


def test_action_laws_checked_over_large_rings():
    add, action = zm_over_zn_tables(2, 128)
    action[1][3] = 0  # 1.(1 + 2) = 0 but 1.1 + 1.2 = 1
    with pytest.raises(AxiomError, match=r"m\(r\+s\)"):
        mo.build_module_from_tables(mo.build_zn(128), add, action)


@pytest.mark.parametrize("build", [
    lambda: mo.build_zn(6), lambda: mo.build_zn(64),
    lambda: mo.build_product(mo.build_zn(2), mo.build_zn(3)),
    lambda: mo.build_product(mo.build_product(mo.build_zn(2), mo.build_zn(4)), mo.build_zn(4)),
    lambda: mo.build_matrix_ring(2),
], ids=["Z6", "Z64", "Z2xZ3", "Z2xZ4xZ4", "M2(Z2)"])
def test_ring_as_module_satisfies_module_laws(build):
    mo.build_ring_as_module(build()).validate()


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=10), st.integers(min_value=1, max_value=5))
def test_zm_over_zn_always_validates(m, k):
    mo.build_zm_over_zn(m, m * k).validate()


# -- submodule machinery -----------------------------------------------------------


def test_cyclic_submodule_values():
    m = mo.build_zm_over_zn(6, 30)
    assert mo.cyclic_submodule(m, 5) == frozenset(range(6))
    assert mo.cyclic_submodule(m, 2) == {0, 2, 4}
    assert mo.cyclic_submodule(m, 0) == {0}


def test_cyclic_contains_element_and_closed():
    m = mo.build_zm_over_zn(6, 30)
    for x in range(m.size):
        sub = mo.cyclic_submodule(m, x)
        assert x in sub and is_submodule(m, sub)


def test_right_ann_values():
    m = mo.build_zm_over_zn(10, 10)
    assert mo.right_ann(m, 2) == {0, 5}
    assert mo.right_ann(m, 0) == frozenset(range(10))
    assert mo.right_ann(m, 1) == {0}


def test_right_ann_is_right_ideal():
    m = mo.build_zm_over_zn(6, 30)
    for x in range(m.size):
        ann = mo.right_ann(m, x)
        for r in ann:
            for s in range(m.ring.size):
                assert m.ring.mul[r][s] in ann


def test_internal_direct_sum():
    m = mo.build_zm_over_zn(6, 30)
    a = mo.cyclic_submodule(m, 2)
    b = mo.cyclic_submodule(m, 3)
    whole = frozenset(range(6))
    assert mo.is_direct_sum(m, a, b, whole)
    assert mo.is_direct_sum(m, b, a, whole)       # symmetric
    assert not mo.is_direct_sum(m, a, a, a)       # intersection is a
    zero = mo.cyclic_submodule(m, 0)
    assert mo.is_direct_sum(m, zero, b, b)


def test_cyclic_matches_ring_principal_on_ring_module():
    r = mo.build_zn(10)
    m = mo.build_ring_as_module(r)
    for a in range(r.size):
        assert mo.cyclic_submodule(m, a) == r.right_ideals[a]
