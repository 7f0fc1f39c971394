import pytest

import modorder as mo
from modorder import hasse


def _closure(edges, n):
    reach = [[False] * n for _ in range(n)]
    for i, j in edges:
        reach[i][j] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    if reach[k][j]:
                        reach[i][j] = True
    return reach


def test_poset_z6_covers(z6_over_z6):
    poset = mo.build_poset(z6_over_z6, "minus-dual")
    assert set(poset.covers) == {(0, 2), (0, 3), (0, 4), (2, 5), (3, 1), (3, 5), (4, 1)}
    assert poset.domain == (0, 1, 2, 3, 4, 5)


def test_poset_z2_single_edge():
    ctx = mo.ModuleContext(mo.build_zm_over_zn(2, 2), "Z2/Z2")
    poset = mo.build_poset(ctx, "minus-dual")
    assert poset.covers == ((0, 1),)


def test_poset_trivial_module():
    ctx = mo.ModuleContext(mo.build_zm_over_zn(1, 3))
    poset = mo.build_poset(ctx, "minus-dual")
    assert poset.covers == () and len(poset.elements) == 1


def test_poset_non_regular_elements_kept_as_nodes(z4_over_z4):
    poset = mo.build_poset(z4_over_z4, "minus-dual")
    assert poset.domain == (0, 1, 3)
    assert 2 in poset.elements
    # 2 is not reflexive, but it genuinely sits above 0 via the zero functional
    assert (0, 2) in poset.covers


def test_closure_of_covers_equals_order(z6_over_z6, z4_over_z4, z6_over_z30):
    for ctx in (z6_over_z6, z4_over_z4, z6_over_z30):
        poset = mo.build_poset(ctx, "minus-dual")
        n = len(poset.elements)
        reach = _closure(poset.covers, n)
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert reach[i][j] == bool(poset.leq[i] >> j & 1), (ctx.name, i, j)


def test_covers_are_minimal(z6_over_z6):
    poset = mo.build_poset(z6_over_z6, "minus-dual")
    n = len(poset.elements)
    for edge in poset.covers:
        rest = [e for e in poset.covers if e != edge]
        assert not _closure(rest, n)[edge[0]][edge[1]], f"{edge} is implied"


def test_build_poset_rejects_non_order(z6_over_z6, monkeypatch):
    broken = mo.relation_matrix(z6_over_z6, "minus-dual")
    broken.rows[5] |= 1 << 2  # with 2 <= 5 this closes an antisymmetry cycle
    monkeypatch.setattr(hasse, "relation_matrix", lambda ctx, tag: broken)
    with pytest.raises(mo.NotAPartialOrder) as exc:
        mo.build_poset(z6_over_z6, "minus-dual")
    assert exc.value.report.counterexample["axiom"] == "antisymmetry"


@pytest.mark.parametrize("m, n", [(6, 30), (4, 8)])
@pytest.mark.parametrize("tag", ["hartwig", "ring-annih"])
def test_build_poset_refuses_a_ring_relation_off_r_r(tag, m, n):
    """On Z6/Z30 the ring's 30 elements would take their domain from the module's 6, and
    on Z4/Z8 the domain {0} would miss Z8's regular {0, 1, 3, 5, 7}."""
    ctx = mo.ModuleContext(mo.build_zm_over_zn(m, n))
    with pytest.raises(ValueError, match=f"ring relation '{tag}' needs R_R; Z{m}/Z{n} is not"):
        mo.build_poset(ctx, tag)


@pytest.mark.parametrize("tag", ["hartwig", "ring-annih"])
def test_build_poset_of_a_ring_relation_on_r_r_takes_the_rings_regular_elements(tag):
    """On R_R the module's regular elements are R's (Z30 is von Neumann regular)."""
    ctx = mo.ModuleContext(mo.build_ring_as_module(mo.build_zn(30)))
    poset = mo.build_poset(ctx, tag)
    assert poset.elements == poset.domain == tuple(range(30))
    assert poset.leq == tuple(mo.relation_matrix(ctx, tag).rows)


def test_dot_output(z6_over_z6):
    poset = mo.build_poset(z6_over_z6, "minus-dual")
    dot = mo.to_dot(poset)
    assert dot.startswith("digraph {")
    assert '"0" -> "2";' in dot
    assert dot.count("->") == 7
    assert "dashed" not in dot


def test_dot_marks_non_regular_nodes(z4_over_z4):
    dot = mo.to_dot(mo.build_poset(z4_over_z4, "minus-dual"))
    assert '"2" [style=dashed];' in dot
    assert '"0" -> "2";' in dot


def test_dot_single_node():
    ctx = mo.ModuleContext(mo.build_zm_over_zn(1, 3))
    dot = mo.to_dot(mo.build_poset(ctx, "minus-dual"))
    assert '"0";' in dot and "->" not in dot


def test_json_listing(z6_over_z6):
    poset = mo.build_poset(z6_over_z6, "minus-dual")
    data = mo.to_json_dict(poset)
    assert data["elements"] == [0, 1, 2, 3, 4, 5]
    assert [0, 2] in data["covers"] and len(data["covers"]) == 7


def test_mitsch_poset_covers_all_elements(z4_over_z4):
    """Mitsch-style relations are reflexive everywhere, so the domain is all of M."""
    matrix = mo.relation_matrix(z4_over_z4, "mitsch")
    report = mo.check_partial_order(matrix, range(4))
    assert report.outcome == "pass"
