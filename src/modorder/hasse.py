"""Hasse diagrams: order matrix, transitive reduction, DOT and JSON export."""

from __future__ import annotations

from typing import NamedTuple

from .homs import ModuleContext
from .laws import check_partial_order, relation_matrix
from .rings import RING_RELATIONS
from .verdicts import bits
from . import orders


class NotAPartialOrder(ValueError):
    def __init__(self, report):
        self.report = report
        super().__init__(f"relation is not a partial order: {report.counterexample}")


class Poset(NamedTuple):
    """A verified finite order with its covering edges.

    ``domain`` holds the elements on which reflexivity was required; the
    remaining elements (non-regular under minus-type relations) are kept as
    nodes, rendered dashed, and excluded from the axiom-check domain.  Their
    genuine edges are still drawn: a non-regular element can sit above a
    regular one even though nothing sits above it.  ``leq`` holds the order's
    row masks: bit j of ``leq[i]`` says that i <= j.
    """

    elements: tuple[int, ...]
    domain: tuple[int, ...]
    leq: tuple[int, ...]
    covers: tuple[tuple[int, int], ...]


def transitive_reduction(rows) -> list[tuple[int, int]]:
    """Covering edges, in ascending order: the related pairs (i, j), i != j, not implied
    by a two-step path i -> k -> j through a third element k (Aho, Garey and Ullman)."""
    covers = []
    for i, row in enumerate(rows):
        above = row & ~(1 << i)
        implied = 0
        for k in bits(above):
            implied |= rows[k] & ~(1 << k)
        covers += ((i, j) for j in bits(above & ~implied))
    return covers


def build_poset(ctx: ModuleContext, tag: str) -> Poset:
    """Verify the relation is a partial order, then reduce it.

    Reflexivity is demanded on the regular elements for minus-type relations
    (the definitional clause m1 = m1 phi m1 rules out the rest); antisymmetry
    and transitivity are checked over the full matrix.  A ring relation needs M = R_R,
    whose regular elements are R's: m = m.phi(m) reads m = m.t.m with t = phi(1).
    """
    if tag in RING_RELATIONS and not ctx.module.is_ring_as_module():
        raise ValueError(f"ring relation {tag!r} needs R_R; {ctx.name} is not")
    matrix = relation_matrix(ctx, tag)
    domain = sorted(orders.regular_set(ctx))
    report = check_partial_order(matrix, domain)
    if report.outcome != "pass":
        raise NotAPartialOrder(report)
    covers = transitive_reduction(matrix.rows)
    return Poset(tuple(range(matrix.size)), tuple(domain), tuple(matrix.rows), tuple(covers))


def to_dot(poset: Poset) -> str:
    """Deterministic DOT text; edges point from smaller to larger."""
    lines = ["digraph {", "  rankdir=BT;"]
    dashed = set(poset.elements) - set(poset.domain)
    for e in poset.elements:
        style = ' [style=dashed]' if e in dashed else ""
        lines.append(f'  "{e}"{style};')
    for i, j in sorted(poset.covers):
        lines.append(f'  "{i}" -> "{j}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json_dict(poset: Poset) -> dict:
    return {"elements": list(poset.elements),
            "covers": [list(edge) for edge in sorted(poset.covers)]}
