"""Witness-carrying verdicts for order-relation queries.

Every relation decision returns an :class:`OrderVerdict`.  When the relation
holds, the verdict carries a witness that can be replayed against the
defining equations of the relation; when it does not hold, the witness is
absent.  ``applicable=False`` marks queries whose preconditions (typically a
missing involution) rule the question out entirely, and ``hypothesis_ok``
records whether the theorem hypotheses behind the characterization were
satisfied by the operands.

Each relation is one :class:`Relation` entry whose clauses drive both the
search for a witness and the replay of a witness already found.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class DualWitness:
    """A functional m -> R, given by its value table over module indices."""

    table: tuple[int, ...]


@dataclass(frozen=True)
class IdemPair:
    """An idempotent endomorphism index f and an idempotent ring element a.

    The projection flags mark clauses that additionally required
    self-adjointness under the relevant involution.
    """

    f: int
    a: int
    f_projection: bool = False
    a_projection: bool = False


@dataclass(frozen=True)
class MapPair:
    """An arbitrary endomorphism index f and ring element a."""

    f: int
    a: int


@dataclass(frozen=True)
class DirectSumWitness:
    """The two summand sets of an internal direct-sum decomposition."""

    first: tuple[int, ...]
    second: tuple[int, ...]


@dataclass(frozen=True)
class InnerInverse:
    """An inner generalized inverse: x with a*x*a = a."""

    value: int


@dataclass(frozen=True)
class AnnihPair:
    """Idempotents p, q certifying the annihilator form of the ring minus order."""

    p: int
    q: int


Witness = DualWitness | IdemPair | MapPair | DirectSumWitness | InnerInverse | AnnihPair


@dataclass(frozen=True)
class OrderVerdict:
    relation: str
    operands: tuple[int, int]
    holds: bool
    witness: Witness | None = None
    hypothesis_ok: bool = True
    applicable: bool = True

    def __post_init__(self):
        if self.applicable and self.holds != (self.witness is not None):
            raise ValueError(f"verdict for {self.relation} breaks holds <-> witness")

    def to_json(self) -> dict:
        return {
            "relation": self.relation,
            "operands": list(self.operands),
            "holds": self.holds,
            "applicable": self.applicable,
            "hypothesis_ok": self.hypothesis_ok,
            "witness": witness_to_json(self.witness),
        }


@dataclass(frozen=True)
class Relation:
    """One order relation, defined once for both the search and the replay.

    ``clauses(ctx, x, y, *pools)`` yields, in pool order, the witness parts
    (one drawn from each pool) that satisfy every defining clause of the
    relation at the pair (x, y).  ``pools(ctx, x, y)`` returns those pools,
    or None where the relation is not defined on ``ctx`` (a star order
    without the involution it needs); a pool that does not depend on the
    operands is cached on ``ctx``, so a query only looks it up.  ``witness``
    builds the witness from its parts, which become the witness's first
    fields.  ``hypothesis`` says whether the theorem behind the
    characterization covers the operands (None: it assumes nothing).
    ``ctx`` is whatever the entries read: a module context for module-level
    relations, a ring for ring-level ones.
    """

    tag: str
    pools: Callable
    clauses: Callable
    witness: Callable
    hypothesis: Callable | None = None

    def __call__(self, ctx, x: int, y: int) -> OrderVerdict:
        """Search: the first witness the clauses yield over the full pools."""
        pools = self.pools(ctx, x, y)
        if pools is None:
            return OrderVerdict(self.tag, (x, y), False, applicable=False)
        hyp = self.covers(ctx, x, y)
        for parts in self.clauses(ctx, x, y, *pools):
            return OrderVerdict(self.tag, (x, y), True, self.witness(*parts),
                                hypothesis_ok=hyp)
        return OrderVerdict(self.tag, (x, y), False, hypothesis_ok=hyp)

    def covers(self, ctx, x: int, y: int) -> bool:
        """Whether the theorem behind the characterization covers (x, y)."""
        return self.hypothesis is None or self.hypothesis(ctx, x, y)

    def replay(self, ctx, verdict: OrderVerdict) -> bool:
        """Check a positive verdict's witness against this relation.

        The hypothesis flag must be what the search records for the operands.
        The witness must be exactly what the search builds from its parts
        (projection flags included), each part must be a member of its pool,
        and the clauses must accept the parts as singleton pools.
        """
        if not verdict.holds:
            return True
        x, y = verdict.operands
        w, pools = verdict.witness, self.pools(ctx, x, y)
        if pools is None or verdict.hypothesis_ok != self.covers(ctx, x, y):
            return False
        parts = tuple(getattr(w, f.name) for f in fields(w)[:len(pools)])
        if len(parts) != len(pools) or self.witness(*parts) != w:
            return False
        if not all(part in pool for part, pool in zip(parts, pools)):
            return False
        singletons = [(part,) for part in parts]
        return next(self.clauses(ctx, x, y, *singletons), None) is not None


_KINDS = {DualWitness: "functional", IdemPair: "idem-pair", MapPair: "map-pair",
          DirectSumWitness: "direct-sum", InnerInverse: "inner-inverse",
          AnnihPair: "annihilator-idem-pair"}


def witness_to_json(w: Witness | None):
    if w is None:
        return None
    out = {"kind": _KINDS[type(w)]}
    for f in fields(w):
        value = getattr(w, f.name)
        out[f.name] = list(value) if isinstance(value, tuple) else value
    return out
