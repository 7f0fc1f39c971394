"""Witness-carrying verdicts for order-relation queries.

Every relation decision returns an :class:`OrderVerdict`.  When the relation
holds, the verdict carries a witness that can be replayed against the
defining equations of the relation; when it does not hold, the witness is
absent.  ``applicable=False`` marks queries whose preconditions (typically a
missing involution) rule the question out entirely, and ``hypothesis_ok``
records whether the theorem hypotheses behind the characterization were
satisfied by the operands.

Each relation is one :class:`Relation` entry whose clause parts, a column of masks per
pool element and their OR, drive its decision (``rows``), its witness search (``firsts``)
and its replay.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial, reduce
from itertools import compress
from operator import and_, eq, or_
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


def or_columns(columns) -> tuple[list[int], list]:
    """(their OR, columns), for the columns of a non-empty pool; equal columns (r and r + m
    of Z_m/Z_n) are one object, ORed once."""
    return list(reduce(partial(map, or_), {id(c): c for c in columns}.values())), columns


def fibre_columns(pool, fibres, images, passing) -> tuple[list[int], list[list[int]]]:
    """(OR, columns): for each p of pool, at each x of passing(p, image), image = images(p) the
    table of x -> p(x), the column is fibres[p][image[x]], x's fibre, else 0; ORed as written."""
    columns, acc = [], [0] * len(fibres[0])
    for p in pool:
        column, fibre, image = [0] * len(acc), fibres[p], images(p)
        for x in passing(p, image):
            column[x] = mask = fibre[image[x]]
            acc[x] |= mask
        columns.append(column)
    return acc, columns


def fixed_points(p, image):
    return compress(range(len(image)), map(eq, image, range(len(image))))


def equal_keys(key: Callable, of_elements) -> Callable:
    """(p, image) -> the x with of_elements[x] = key(p), found in one pass over of_elements."""
    where = {}
    for x, value in enumerate(of_elements):
        where.setdefault(value, []).append(x)
    return lambda p, image: where.get(key(p), ())


def _carrier(ctx):
    return ctx if hasattr(ctx, "size") else ctx.module  # a ring, End(M) too, or M


def check_elements(ctx, *elements) -> None:
    """ValueError for an element outside 0..size-1 of ctx (a ring or a module) or its module."""
    carrier = _carrier(ctx)
    for m in elements:
        if not 0 <= m < carrier.size:
            raise ValueError(f"element {shown(m)} out of range for {carrier.name}")


def kept_part(ctx, part, pool) -> tuple:
    """(pool, *part(ctx, pool)), kept on ctx with no reference back to it, so that dropping a
    context frees it.  A pool is compared, not hashed (M*'s holds every table of M*)."""
    memo = vars(ctx).get("clause_memo") or vars(ctx).setdefault("clause_memo", {})
    for entry in memo.get(part, ()):
        if entry[0] is pool or entry[0] == pool:
            return entry
    entry = pool, *part(ctx, pool)
    memo.setdefault(part, []).append(entry)
    return entry


class Relation(NamedTuple):
    """One order relation, defined once for the decision, the witness and the replay.

    ``pools(ctx)`` gives the pools of witness parts, or None where the relation is
    undefined (a star order without its involution).  ``parts[i](ctx, pool)`` gives
    ``(or_row, columns)``: for each p of ``pool`` in order (pool i, or the one-element pool
    of a replay), a column: for each x, the mask of the y at which clause part i holds for p
    (-1: every y); and for each x, the OR of the columns at x.  It holds at (x, y) when each
    pool has a p covering y; the first ones are the parts from which ``witness`` builds the
    witness (as its first fields).  ``hypothesis`` says whether the theorem covers (x, y)
    (None: no assumption).  ``ctx`` is a module context, or a ring; it keeps what each part
    returned for each pool, so relations that share a part and an equal pool share it.
    """

    tag: str
    pools: Callable
    parts: tuple[Callable, ...]
    witness: Callable
    hypothesis: Callable | None = None

    def __call__(self, ctx, x: int, y: int) -> OrderVerdict:
        """The verdict at (x, y); ValueError for an operand outside 0..size-1."""
        check_elements(ctx, x, y)
        return self.verdict(ctx, x, y, self.rows(ctx)[x])

    def rows(self, ctx) -> list[int | None]:
        """Each x's mask of the y related to it: the AND over the parts of their ORs (None
        throughout: not applicable)."""
        pools = self.pools(ctx)
        if pools is None:
            return [None] * _carrier(ctx).size
        return list(reduce(partial(map, and_), [
            kept_part(ctx, part, pool)[1] for part, pool in zip(self.parts, pools)]))

    def columns(self, ctx) -> list[tuple]:
        """(pool, its columns) for each part, as the ORs were built from them."""
        return [kept_part(ctx, part, pool)[::2] for part, pool in zip(self.parts, self.pools(ctx))]

    def firsts(self, ctx, x: int, row: int) -> dict[int, tuple]:
        """The witness parts at each y of ``row``, a mask of cells where the relation
        holds: the first p of each pool whose column covers y at x, in one scan of each pool."""
        found = {y: [] for y in bits(row)}
        for pool, columns in self.columns(ctx):
            left = row
            for p, column in zip(pool, columns):
                if not left:
                    break
                for y in bits(column[x] & left):
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
        """Check a verdict against this relation: operands in 0..size-1; a negative one is the
        search's own at (x, y) but for its tag ("regular" is minus-dual's); a positive one has
        the search's hypothesis flag, exactly its witness (its type, as records equal any tuple
        of equal fields, and its projection flags), each part in its pool, covering y at x."""
        x, y = verdict.operands
        w, pools, elements = verdict.witness, self.pools(ctx), range(_carrier(ctx).size)
        if x not in elements or y not in elements:
            return False
        if not verdict.holds:
            return verdict[1:] == self(ctx, x, y)[1:]
        if pools is None or verdict.hypothesis_ok != self.covers(ctx, x, y):
            return False
        parts = w[:len(pools)] if isinstance(w, tuple) else ()
        built = len(parts) == len(pools) and self.witness(*parts)
        if type(built) is not type(w) or built != w:
            return False
        return all(p in pool and part(ctx, (p,))[0][x] >> y & 1
                   for p, pool, part in zip(parts, pools, self.parts))


_KINDS = {DualWitness: "functional", IdemPair: "idem-pair", MapPair: "map-pair",
          DirectSumWitness: "direct-sum", InnerInverse: "inner-inverse",
          AnnihPair: "annihilator-idem-pair"}


def witness_to_json(w: Witness | None):
    if w is None:
        return None
    return {key: list(value) if isinstance(value, tuple) else value
            for key, value in (("kind", _KINDS[type(w)]), *zip(w._fields, w))}
