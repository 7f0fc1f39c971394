"""Witness-carrying verdicts for order-relation queries.

Every relation decision returns an :class:`OrderVerdict`.  When the relation
holds, the verdict carries a witness that can be replayed against the
defining equations of the relation; when it does not hold, the witness is
absent.  ``applicable=False`` marks queries whose preconditions (typically a
missing involution) rule the question out entirely, and ``hypothesis_ok``
records whether the theorem hypotheses behind the characterization were
satisfied by the operands.

Each relation is one :class:`Relation` entry whose mask-valued clause parts
drive its decision (``row``), its witness search (``firsts``) and its replay.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import reduce
from operator import or_
from typing import NamedTuple

from .tables import shown


class DualWitness(NamedTuple):
    """A functional m -> R, given by its value table over module indices."""

    table: tuple[int, ...]


class IdemPair(NamedTuple):
    """An idempotent endomorphism index f and an idempotent ring element a.

    The projection flags mark clauses that additionally required
    self-adjointness under the relevant involution.
    """

    f: int
    a: int
    f_projection: bool = False
    a_projection: bool = False


class MapPair(NamedTuple):
    """An arbitrary endomorphism index f and ring element a."""

    f: int
    a: int


class DirectSumWitness(NamedTuple):
    """The two summand sets of an internal direct-sum decomposition."""

    first: tuple[int, ...]
    second: tuple[int, ...]


class InnerInverse(NamedTuple):
    """An inner generalized inverse: x with a*x*a = a."""

    value: int


class AnnihPair(NamedTuple):
    """Idempotents p, q certifying the annihilator form of the ring minus order."""

    p: int
    q: int


Witness = DualWitness | IdemPair | MapPair | DirectSumWitness | InnerInverse | AnnihPair


class _VerdictFields(NamedTuple):
    relation: str
    operands: tuple[int, int]
    holds: bool
    witness: Witness | None = None
    hypothesis_ok: bool = True
    applicable: bool = True


class OrderVerdict(_VerdictFields):
    """An applicable verdict holds iff it has a witness, checked on every construction path."""

    __slots__ = ()

    def __new__(cls, *fields, **named):
        self = super().__new__(cls, *fields, **named)
        if self.applicable and self.holds != (self.witness is not None):
            raise ValueError(f"verdict for {self.relation} breaks holds <-> witness")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def to_json(self) -> dict:
        return {
            "relation": self.relation,
            "operands": list(self.operands),
            "holds": self.holds,
            "applicable": self.applicable,
            "hypothesis_ok": self.hypothesis_ok,
            "witness": witness_to_json(self.witness),
        }


def bits(mask: int):
    """The positions of the set bits of a non-negative mask, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Relation(NamedTuple):
    """One order relation, defined once for the decision, the witness and the replay.

    ``pools(ctx, x)`` gives the pools of witness parts for row x, or None where the
    relation is undefined (a star order without its involution).  ``parts[i](ctx, x, pool)``
    lists, for each p of ``pool`` in order (pool i, or the one-element pool of a replay),
    the mask of the y at which clause part i holds for p (-1: every y).  It holds at (x, y)
    when each pool has a p covering y; the first ones are the parts from which ``witness``
    builds the witness (as its first fields).  ``hypothesis`` says whether the theorem
    covers (x, y) (None: no assumption).  ``ctx`` is a module context, or a ring.
    """

    tag: str
    pools: Callable
    parts: tuple[Callable, ...]
    witness: Callable
    hypothesis: Callable | None = None

    def __call__(self, ctx, x: int, y: int) -> OrderVerdict:
        """The verdict at (x, y); ValueError for an operand outside 0..size-1."""
        carrier = ctx if hasattr(ctx, "size") else ctx.module  # a ring, End(M) too, or M
        for m in (x, y):
            if not 0 <= m < carrier.size:
                raise ValueError(f"element {shown(m)} out of range for {carrier.name}")
        return self.verdict(ctx, x, y, self.row(ctx, x, 1 << y))

    def row(self, ctx, x: int, todo: int) -> int | None:
        """The mask of the y in ``todo`` at which the relation holds (None: not
        applicable): the y that each pool's parts cover, pool by pool, until none is left."""
        pools = self.pools(ctx, x)
        if pools is None:
            return None
        for pool, part in zip(pools, self.parts):
            todo &= reduce(or_, part(ctx, x, pool), 0) if todo else 0
        return todo

    def firsts(self, ctx, x: int, row: int) -> dict[int, tuple]:
        """The witness parts at each y of ``row``, a mask of cells where the relation
        holds: the first p of each pool whose part covers y, in one scan of each pool."""
        found = {y: [] for y in bits(row)}
        for pool, part in zip(self.pools(ctx, x), self.parts):
            left = row
            for p, mask in zip(pool, part(ctx, x, pool)):
                if not left:
                    break
                for y in bits(mask & left):
                    found[y].append(p)
                    left ^= 1 << y
        return {y: tuple(parts) for y, parts in found.items()}

    def verdict(self, ctx, x: int, y: int, row: int | None) -> OrderVerdict:
        """The verdict at (x, y) from row x's mask (None: not applicable)."""
        if row is None:
            return OrderVerdict(self.tag, (x, y), False, applicable=False)
        holds = bool(row >> y & 1)
        witness = self.witness(*self.firsts(ctx, x, 1 << y)[y]) if holds else None
        return OrderVerdict(self.tag, (x, y), holds, witness, self.covers(ctx, x, y))

    def covers(self, ctx, x: int, y: int) -> bool:
        """Whether the theorem behind the characterization covers (x, y)."""
        return self.hypothesis is None or self.hypothesis(ctx, x, y)

    def replay(self, ctx, verdict: OrderVerdict) -> bool:
        """Check a positive verdict's witness against this relation: the hypothesis flag
        the search records, exactly the witness the search builds from its parts (its
        type, as records compare equal to any tuple of equal fields, and its projection
        flags), and each part in its pool, covering y."""
        if not verdict.holds:
            return True
        x, y = verdict.operands
        w, pools = verdict.witness, self.pools(ctx, x)
        if pools is None or verdict.hypothesis_ok != self.covers(ctx, x, y):
            return False
        parts = w[:len(pools)] if isinstance(w, tuple) else ()
        built = len(parts) == len(pools) and self.witness(*parts)
        if type(built) is not type(w) or built != w:
            return False
        return all(p in pool and part(ctx, x, (p,))[0] >> y & 1
                   for p, pool, part in zip(parts, pools, self.parts))


_KINDS = {DualWitness: "functional", IdemPair: "idem-pair", MapPair: "map-pair",
          DirectSumWitness: "direct-sum", InnerInverse: "inner-inverse",
          AnnihPair: "annihilator-idem-pair"}


def witness_to_json(w: Witness | None):
    if w is None:
        return None
    return {key: list(value) if isinstance(value, tuple) else value
            for key, value in (("kind", _KINDS[type(w)]), *zip(w._fields, w))}
