"""Hasse diagrams: order matrix, transitive reduction, DOT and JSON export."""

from __future__ import annotations

from dataclasses import dataclass

from .homs import ModuleContext
from .laws import RelationMatrix, check_partial_order, relation_matrix
from . import orders


class NotAPartialOrder(ValueError):
    def __init__(self, report):
        self.report = report
        super().__init__(f"relation is not a partial order: {report.counterexample}")


@dataclass(frozen=True)
class Poset:
    """A verified finite order with its covering edges.

    ``domain`` holds the elements on which reflexivity was required; the
    remaining elements (non-regular under minus-type relations) are kept as
    nodes, rendered dashed, and excluded from the axiom-check domain.  Their
    genuine edges are still drawn: a non-regular element can sit above a
    regular one even though nothing sits above it.
    """

    elements: tuple[int, ...]
    domain: tuple[int, ...]
    leq: tuple[tuple[bool, ...], ...]
    covers: tuple[tuple[int, int], ...]


def transitive_reduction(cells, n) -> list[tuple[int, int]]:
    """Covering edges: related pairs not implied by a two-step path."""
    covers = []
    for i in range(n):
        for j in range(n):
            if i == j or not cells[i][j]:
                continue
            if not any(k != i and k != j and cells[i][k] and cells[k][j]
                       for k in range(n)):
                covers.append((i, j))
    return covers


def build_poset(ctx: ModuleContext, tag: str,
                matrix: RelationMatrix | None = None) -> Poset:
    """Verify the relation is a partial order, then reduce it.

    Reflexivity is demanded on the regular elements for minus-type relations
    (the definitional clause m1 = m1 phi m1 rules out the rest); antisymmetry
    and transitivity are checked over the full matrix.
    """
    if matrix is None:
        matrix = relation_matrix(ctx, tag)
    if not matrix.applicable:
        raise ValueError(f"relation {matrix.relation!r} is not applicable on "
                         f"{ctx.name}: the required involution is absent")
    domain = sorted(orders.regular_set(ctx))
    report = check_partial_order(matrix, domain)
    if report.outcome != "pass":
        raise NotAPartialOrder(report)
    n = matrix.size
    covers = transitive_reduction(matrix.cells, n)
    return Poset(tuple(range(n)), tuple(domain),
                 tuple(tuple(row) for row in matrix.cells), tuple(covers))


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
