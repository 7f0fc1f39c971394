"""Finite rings with identity as explicit Cayley tables.

Elements are dense indices ``0..size-1``; all structure is table lookups so
that exhaustive quantifier elimination stays O(1) per probe.  Rings are
immutable after construction and every query is a pure function, so shared
concurrent reads are safe.
"""

from __future__ import annotations

import reprlib
from itertools import compress, product, repeat
from operator import eq, itemgetter
from typing import NamedTuple

from .tables import (AxiomError, additive_group, check_add_associative, check_additive,
                     check_size, checked_table, cyclic_tables, greedy_generators, identity_of,
                     lazy, preimage_masks, shown)
from .verdicts import (AnnihPair, InnerInverse, OrderVerdict, Relation, check_elements,
                       equal_keys, fibre_columns, kept_part)

MAX_RING_SIZE = 256


class SpecError(ValueError):
    """A ring/module definition is malformed."""


class FiniteRing:
    """Ring with identity on ``0..size-1``, given by add/mul tables.

    ``involution`` is an optional permutation satisfying (a*)* = a,
    (a+b)* = a* + b* and (ab)* = b* a*.  When none is supplied and the
    multiplication is commutative, the identity map is installed (it is an
    involution exactly in the commutative case); noncommutative rings carry
    an involution only if one is given explicitly.
    """

    def __init__(self, add, mul, *, involution=None, name=None):
        add, zero, neg = additive_group(add, MAX_RING_SIZE, "ring")
        n = len(add)
        mul = checked_table(mul, n, n, n, "mul")
        if (one := identity_of(mul)) is None:
            raise AxiomError("no multiplicative identity")
        if involution is not None:
            involution = checked_table([involution], 1, n, n, "involution")[0]
        self._install(add, mul, zero, one, neg, involution=involution, name=name)
        self.validate()

    @classmethod
    def _derived(cls, add, mul, zero, one, neg, **known) -> FiniteRing:
        """A ring by theorem, from a builder's closed-form tables, installed unchecked."""
        ring = cls.__new__(cls)
        ring._install(add, mul, zero, one, neg, **known)
        return ring

    def _install(self, add, mul, zero, one, neg, *, involution=None, name=None, commutative=None):
        """Set the tables and elements, and commutativity where known (else found on first use)."""
        self.add, self.mul, self.zero, self.one, self.neg = add, mul, zero, one, neg
        self.size, self.name = len(add), name or f"ring{len(add)}"
        if commutative is not None:
            self._commutative = commutative
        self.involution = (list(range(self.size)) if involution is None and self.is_commutative()
                           else involution)

    @lazy
    def additive_generators(self) -> tuple[int, ...]:
        """Greedy generators of the additive group (see ``greedy_generators``)."""
        return greedy_generators(self.add, range(self.size), self.zero)

    def validate(self):
        """Check every ring law where an additive generator g is involved, in O(n^2 |G|)
        lookups.  (1) + is associative by Light's test (Clifford & Preston 1961): the b
        with (a+b)+c = a+(b+c) for all a, c are closed under +, as (a+(b+b'))+c =
        ((a+b)+b')+c = (a+b)+(b'+c) = a+((b+b')+c).  (2) Distributivity: x -> ax and
        x -> xa are additive, as given (1) the y with f(x+y) = f(x)+f(y) for all x are
        closed under +.  (3) Given (2), (ab)c - a(bc) is additive in each argument, so
        associativity of * on G x G x G.  (4) The involution *: self-inverse on every
        element, additive by check_additive; given that and (2), (ab)* - b*a* is
        additive in each argument ((a+a')b -> (ab)* + (a'b)*, b*(a+a')* = b*a* + b*a'*),
        so (ab)* = b*a* on G x G."""
        add, mul, gens = self.add, self.mul, self.additive_generators
        check_add_associative(add, gens, "addition")
        check_additive(mul, add, add, gens, "left distributivity fails at (a,b,c)=({f},{x},{g})")
        if self.opposite is not self:  # the right law is R^op's left one
            check_additive(self.opposite.mul, add, add, gens,
                           "right distributivity fails at (a,b,c)=({f},{x},{g})")
        for a, b, c in product(gens, repeat=3):
            if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                raise AxiomError(f"multiplication not associative at (a,b,c)=({a},{b},{c})")
        if (inv := self.involution) is None:
            return
        for a, v in enumerate(inv):
            if inv[v] != a:
                raise AxiomError(f"involution not self-inverse at {a}")
        check_additive([inv], add, add, gens, "involution not additive at (a,b)=({x},{g})")
        for a, b in product(gens, repeat=2):
            if inv[mul[a][b]] != mul[inv[b]][inv[a]]:
                raise AxiomError(f"involution not anti-multiplicative at (a,b)=({a},{b})")

    # -- basic structure ----------------------------------------------------------

    def is_commutative(self) -> bool:
        return self._commutative

    @lazy
    def _commutative(self) -> bool:
        """Whether mul equals its transpose, found once per ring."""
        return self.mul == [list(col) for col in zip(*self.mul)]

    @property
    def opposite(self) -> FiniteRing:
        """R^op, a.b = ba: R itself when R is commutative, else a ring with no link back to R."""
        return self if self.is_commutative() else self._opposite

    @lazy
    def _opposite(self) -> FiniteRing:
        """R^op; R's involution, an anti-automorphism of R, is one of R^op."""
        return FiniteRing._derived(self.add, [list(col) for col in zip(*self.mul)], self.zero,
                                   self.one, self.neg, involution=self.involution,
                                   commutative=False, name=f"{self.name}^op")

    def sub(self, a: int, b: int) -> int:
        check_elements(self, a, b)
        return self.add[a][self.neg[b]]

    def star(self, a: int) -> int:
        check_elements(self, a)
        if self.involution is None:
            raise ValueError(f"{self.name} has no involution")
        return self.involution[a]

    def idempotents(self) -> frozenset[int]:
        return frozenset(self.idempotent_pool)

    def units(self) -> frozenset[int]:
        return frozenset(self.unit_pool)

    def projections(self) -> frozenset[int]:
        """Self-adjoint idempotents; requires an involution."""
        return frozenset(self.projection_pool)

    @lazy
    def element_pool(self) -> range:
        """Every element in ascending order, as a witness pool."""
        return range(self.size)

    @lazy
    def idempotent_pool(self) -> tuple[int, ...]:
        """The idempotents in ascending order, as a witness pool."""
        return tuple(e for e, row in enumerate(self.mul) if row[e] == e)

    @lazy
    def unit_pool(self) -> tuple[int, ...]:
        """The units in ascending order: 1 in row u, as a finite ring is Dedekind-finite."""
        return tuple(u for u, row in enumerate(self.mul) if self.one in row)

    @lazy
    def projection_pool(self) -> tuple[int, ...]:
        """The projections in ascending order, as a witness pool."""
        if self.involution is None:
            raise ValueError(f"{self.name} has no involution; projections undefined")
        return tuple(e for e in self.idempotent_pool if self.involution[e] == e)

    # -- annihilators and principal one-sided ideals, per element -------------------

    @lazy
    def right_anns(self) -> tuple[frozenset[int], ...]:
        """r(a) = {x : a*x = 0}, indexed by a."""
        return tuple(frozenset(compress(self.element_pool, map(eq, row, repeat(self.zero))))
                     for row in self.mul)

    @lazy
    def right_ideals(self) -> tuple[frozenset[int], ...]:
        """e*R, indexed by e."""
        return tuple(frozenset(row) for row in self.mul)

    @lazy
    def row_preimages(self) -> tuple[tuple[int, ...], ...]:
        """The mask of {b : a*b = v}, indexed by a, then v."""
        return preimage_masks(self.mul, self.size)

    # each is R^op's right-hand family (Anderson & Fuller): on a commutative R, the same object
    left_anns = lazy(lambda self: self.opposite.right_anns)  # l(a) = {x : x*a = 0}, by a
    left_ideals = lazy(lambda self: self.opposite.right_ideals)  # R*e, by e
    column_preimages = lazy(lambda self: self.opposite.row_preimages)  # {b : b*a = v}, by a, v

    @lazy
    def rickart_star(self) -> RickartCert:
        """``is_rickart_star``'s certificate, one per ring: callers must not mutate it."""
        return _rickart_cert(self, self.projection_pool)


# -- constructors ------------------------------------------------------------


def same_ring(a: FiniteRing, b: FiniteRing) -> bool:
    """Structural identity: same carrier size and the same operation tables."""
    return a is b or (a.size == b.size and a.add == b.add and a.mul == b.mul)


def build_zn(n: int) -> FiniteRing:
    """Integers mod n.  n = 1 gives the zero ring (zero = one)."""
    if n < 1:
        raise SpecError("modulus must be positive")
    check_size(n, MAX_RING_SIZE, "ring")
    return FiniteRing._derived(*cyclic_tables(n, n), 0, 1 % n, [-x % n for x in range(n)],
                               commutative=True, name=f"Z{n}")


def build_product(r1: FiniteRing, r2: FiniteRing) -> FiniteRing:
    """Componentwise product; element (x, y) sits at index x*|r2| + y."""
    n2 = r2.size
    check_size(r1.size * n2, MAX_RING_SIZE, "ring")

    def table(t1, t2):  # row (x, y): row y of t2 shifted by t1[x][x'] * n2, for each x'
        shifted, rows = [[[v * n2 + w for w in row] for row in t2] for v in range(r1.size)], []
        for row in t1:
            for y in range(n2):
                rows.append(out := [])
                for v in row:
                    out += shifted[v][y]
        return rows
    involution = None
    if r1.involution is not None and r2.involution is not None:
        involution = [v * n2 + w for v in r1.involution for w in r2.involution]
    return FiniteRing._derived(
        table(r1.add, r2.add), table(r1.mul, r2.mul), r1.zero * n2 + r2.zero, r1.one * n2 + r2.one,
        [v * n2 + w for v in r1.neg for w in r2.neg], involution=involution,
        commutative=r1.is_commutative() and r2.is_commutative(), name=f"{r1.name}x{r2.name}")


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))


def build_matrix_ring(p: int) -> FiniteRing:
    """2x2 matrices over Z_p with transpose as involution.

    Matrix ((a,b),(c,d)) sits at index a*p^3 + b*p^2 + c*p + d.  p must be
    prime (so the entries form a field).
    """
    if p ** 4 > MAX_RING_SIZE:  # before the trial division, which a large p would stall
        raise SpecError(f"M2(Z{shown(p)}) has {shown(p**4)} elements, beyond cap {MAX_RING_SIZE}")
    if not _is_prime(p):
        raise SpecError(f"{p} is not prime")

    def enc(a, b, c, d):
        return ((a * p + b) * p + c) * p + d

    mats = list(product(range(p), repeat=4))  # in index order
    add = [[enc(*[(u + v) % p for u, v in zip(x, y)]) for y in mats] for x in mats]
    mul = [[enc((x[0] * y[0] + x[1] * y[2]) % p, (x[0] * y[1] + x[1] * y[3]) % p,
                (x[2] * y[0] + x[3] * y[2]) % p, (x[2] * y[1] + x[3] * y[3]) % p)
            for y in mats] for x in mats]
    transpose = [enc(x[0], x[2], x[1], x[3]) for x in mats]
    neg = [enc(*(-v % p for v in x)) for x in mats]
    return FiniteRing._derived(add, mul, 0, enc(1, 0, 0, 1), neg, involution=transpose,
                               commutative=False, name=f"M2(Z{p})")


def build_ring_from_tables(add, mul, *, involution=None, name=None) -> FiniteRing:
    """Validated ring from raw tables; axiom failures name the violating tuple."""
    return FiniteRing(add, mul, involution=involution, name=name or "tables")


def ring_to_spec(ring: FiniteRing) -> dict:
    """Definition-file form of any ring (always the explicit-tables kind)."""
    spec = {"kind": "tables", "name": ring.name, "size": ring.size,
            "add": [list(row) for row in ring.add],
            "mul": [list(row) for row in ring.mul]}
    if ring.involution is not None:
        spec["involution"] = list(ring.involution)
    return spec


def spec_field(spec, key: str, kind: str):
    """``spec[key]``, or a SpecError naming the kind of spec and the missing key."""
    if not isinstance(spec, dict) or key not in spec:
        raise SpecError(f"{kind} spec missing {key!r}")
    return spec[key]


def spec_int(spec, key: str, kind: str) -> int:
    """``spec[key]`` as an int, or a SpecError naming the kind of spec and the key."""
    value = spec_field(spec, key, kind)
    if type(value) is not int:
        raise SpecError(f"{kind} spec field {key!r} must be an integer, not {reprlib.repr(value)}")
    return value


def spec_str(spec, key: str, kind: str) -> str | None:
    """``spec[key]`` as a str, None when absent, or a SpecError naming the kind and the key."""
    value = spec.get(key)
    if key in spec and not isinstance(value, str):
        raise SpecError(f"{kind} spec field {key!r} must be a string, not {reprlib.repr(value)}")
    return value


def spec_size(spec, table, kind: str) -> None:
    """A present "size" field must be an int equal to the number of rows of ``table``."""
    if "size" in spec and isinstance(table, list) and spec_int(spec, "size", kind) != len(table):
        raise SpecError(f"{kind} spec field 'size' is {shown(spec['size'])}, "
                        f"not {len(table)} rows")


def ring_from_spec(spec: dict) -> FiniteRing:
    """Build a ring from its definition-file form (already JSON-decoded)."""
    kind = spec_field(spec, "kind", "ring")
    if kind == "Zn":
        return build_zn(spec_int(spec, "n", kind))
    if kind == "product":
        factors = spec.get("factors", [])
        if not isinstance(factors, list) or len(factors) != 2:
            raise SpecError("product spec needs exactly two factors")
        return build_product(ring_from_spec(factors[0]), ring_from_spec(factors[1]))
    if kind == "matrix2":
        return build_matrix_ring(spec_int(spec, "p", kind))
    if kind == "tables":
        add, mul = spec_field(spec, "add", kind), spec_field(spec, "mul", kind)
        spec_size(spec, add, kind)
        return build_ring_from_tables(add, mul, involution=spec.get("involution"),
                                      name=spec_str(spec, "name", kind))
    raise SpecError(f"unknown ring kind {reprlib.repr(kind)}")


# -- element-level predicates and relations -----------------------------------


def _hartwig_part(ring: FiniteRing, pool) -> tuple[list[int], list[list[int]]]:
    """Hartwig's minus order: for each x, at each a with axa = a, the b with xa = xb and
    ax = bx.  Read off each a's inner inverses, the x with (ax)a = a."""
    table, rows, cols = ring.mul, ring.row_preimages, ring.column_preimages
    columns, acc = {x: [0] * ring.size for x in pool}, [0] * ring.size
    for a, a_times in enumerate(table):
        axa = map(itemgetter(a), map(table.__getitem__, a_times))
        for x in compress(ring.element_pool, map(a.__eq__, axa)):
            if (column := columns.get(x)) is not None:
                column[a] = mask = rows[x][table[x][a]] & cols[x][a_times[x]]
                acc[a] |= mask
    return acc, list(columns.values())


def _annih_p(ring: FiniteRing, pool) -> tuple[list[int], list[list[int]]]:
    """For each idempotent p, at each a with l(a) = R(1-p), which is l(p), the b with pa = pb."""
    return fibre_columns(pool, ring.row_preimages, ring.mul.__getitem__,
                         equal_keys(ring.left_anns.__getitem__, ring.left_anns))


def _annih_q(ring: FiniteRing, pool) -> tuple[list[int], list[list[int]]]:
    """For each idempotent q, at each a with r(a) = (1-q)R, which is r(q), the b with aq = bq:
    _annih_p on R^op, kept there (on R itself, shared with the p part, when R is commutative),
    handed R's right annihilators as R^op's left ones, so that no (R^op)^op is built."""
    vars(ring.opposite).setdefault("left_anns", ring.right_anns)
    return kept_part(ring.opposite, _annih_p, pool)[1:]


# The ring-level relations, each called as relation(ring, a, b).
hartwig_minus_le = Relation("hartwig", lambda ring: (ring.element_pool,),
                            (_hartwig_part,), InnerInverse)
# Annihilator form of the ring minus order: idempotents p, q with l(a) = R(1-p), r(a) =
# (1-q)R, pa = pb and aq = bq, gated by R(1-p) = l(p), (1-q)R = r(q) (idempotent_annih_identity).
ring_minus_le_annih = Relation("ring-annih", lambda ring: (ring.idempotent_pool,) * 2,
                               (_annih_p, _annih_q), AnnihPair)

RING_RELATIONS = {rel.tag: rel for rel in (hartwig_minus_le, ring_minus_le_annih)}


def vn_regular_witness(ring: FiniteRing, a: int):
    """First x with a*x*a = a (so a <= a in Hartwig's order), or None when
    a has no inner inverse."""
    verdict = hartwig_minus_le(ring, a, a)
    return verdict.witness.value if verdict.holds else None


def idempotent_annih_identity(ring: FiniteRing, p: int) -> bool:
    """R(1-p) = l(p) and (1-p)R = r(p); must hold for every idempotent p."""
    check_elements(ring, p)
    if ring.mul[p][p] != p:
        raise ValueError(f"{p} is not idempotent in {ring.name}")
    comp = ring.sub(ring.one, p)
    return (ring.left_ideals[comp] == ring.left_anns[p]
            and ring.right_ideals[comp] == ring.right_anns[p])


# -- whole-ring certificates ---------------------------------------------------


class RickartCert(NamedTuple):
    """Per-element idempotent (or projection) generators of both annihilators.

    ``witnesses[a] = (p, q)`` with r(a) = pR and l(a) = Rq.  ``failure`` names
    the first element with no such pair.
    """

    holds: bool
    witnesses: dict[int, tuple[int, int]]
    failure: int | None = None


def _first_generators(rows, zero, gens):
    """Row a of mul -> the first e of gens with eR = r(a), or None (columns: Re = l(a)).  As R
    has 1, eR <= r(a) iff ae = 0, so eR = r(a) iff also |eR| = |r(a)|, the zeros of row a."""
    by_size = {}  # the gens e by |eR| = |R| / |r(e)|, as x -> ex is additive, in order
    for e in gens:
        by_size.setdefault(len(rows) // rows[e].count(zero), []).append(e)

    def first(row):  # among the gens of size |r(a)|, the first e with ae = 0
        for e in by_size.get(row.count(zero), ()):
            if row[e] == zero:
                return e
    return first


def _rickart_cert(ring: FiniteRing, gens) -> RickartCert:
    cols = ring.opposite.mul
    right = _first_generators(ring.mul, ring.zero, gens)
    left = right if cols is ring.mul else _first_generators(cols, ring.zero, gens)
    witnesses = {}
    for a, (row, col) in enumerate(zip(ring.mul, cols)):
        if (p := right(row)) is None or (q := p if left is right else left(col)) is None:
            return RickartCert(False, witnesses, failure=a)
        witnesses[a] = (p, q)
    return RickartCert(True, witnesses)


def is_rickart(ring: FiniteRing) -> RickartCert:
    """Every one-sided annihilator of an element is a principal ideal on an idempotent."""
    return _rickart_cert(ring, ring.idempotent_pool)


def is_rickart_star(ring: FiniteRing) -> RickartCert:
    """Every one-sided annihilator is generated by a projection."""
    return ring.rickart_star


def is_proper_star(ring: FiniteRing) -> bool:
    """a a* = 0 implies a = 0."""
    if ring.involution is None:
        raise ValueError(f"{ring.name} has no involution")
    return all(ring.mul[a][ring.involution[a]] != ring.zero
               for a in range(ring.size) if a != ring.zero)


def revalidate_ring(verdict: OrderVerdict, ring: FiniteRing) -> bool:
    """Replay a ring-level verdict's witness against its relation's clauses."""
    try:
        relation = RING_RELATIONS[verdict.relation]
    except KeyError:
        raise ValueError(f"not a ring-level relation: {verdict.relation}") from None
    return relation.replay(ring, verdict)
