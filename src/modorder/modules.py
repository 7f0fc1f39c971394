"""Finite right modules over finite rings, as carrier + addition + action tables."""

from __future__ import annotations

import reprlib
from itertools import compress, product, repeat
from operator import eq

from .rings import (FiniteRing, SpecError, build_zn, ring_from_spec, spec_field, spec_int,
                    spec_size, spec_str)
from .tables import (AxiomError, additive_group, check_add_associative, check_additive,
                     check_size, checked_table, cyclic_tables, greedy_generators,
                     lazy, preimage_masks, shown)
from .verdicts import check_elements

MAX_MODULE_SIZE = 64


class FiniteModule:
    """Unitary right R-module on ``0..size-1``.

    ``action`` is a size x |R| table: ``action[m][r]`` is m.r.  Construction
    checks the abelian-group laws of the addition and the four action laws
    m(r+s) = mr + ms, (m+n)r = mr + nr, m(rs) = (mr)s and m1 = m, except on R_R (its
    ring's laws); builders of modules by theorem use ``_derived``, which checks nothing.
    """

    def __init__(self, ring: FiniteRing, add, action, *, name=None):
        if add == ring.add and action == ring.mul:
            # R_R's module laws are the ring's additive-group, distributivity
            # and associativity laws, which hold for the ring.
            self._install(ring, ring.add, ring.mul, ring.zero, ring.neg, name)
        else:
            add, zero, neg = additive_group(add, MAX_MODULE_SIZE, "module")
            action = checked_table(action, len(add), ring.size, len(add), "action")
            self._install(ring, add, action, zero, neg, name)
            self.validate()

    @classmethod
    def _derived(cls, ring: FiniteRing, add, action, zero, neg, *, name) -> FiniteModule:
        """A module by theorem, from a builder's closed-form tables, installed unchecked."""
        module = cls.__new__(cls)
        module._install(ring, add, action, zero, neg, name)
        return module

    def _install(self, ring, add, action, zero, neg, name):
        self.ring, self.add, self.action, self.zero, self.neg = ring, add, action, zero, neg
        self.size, self.name = len(add), name or f"module{len(add)}"

    def is_ring_as_module(self) -> bool:
        """Whether this is R_R (__init__ installs the ring's own tables when they are equal)."""
        return self.action is self.ring.mul

    def validate(self):
        """Check every module law where an additive generator of M or R is involved, as
        ``FiniteRing.validate`` does: + by Light's test; m1 = m; (m+n)r and m(r+s), which
        say m -> mr and r -> mr are additive; then m(rs) - (mr)s is additive in each
        argument, so m(rs) = (mr)s on generator triples."""
        R, gens = self.ring, greedy_generators(self.add, range(self.size), self.zero)
        rgens = R.additive_generators
        check_add_associative(self.add, gens, "module addition")
        for x in range(self.size):
            if self.action[x][R.one] != x:
                raise AxiomError(f"unitality fails: {x}.1 = {self.action[x][R.one]}")
        check_additive(list(zip(*self.action)), self.add, self.add, gens,
                       "(m+n)r law fails at (m,n,r)=({x},{g},{f})")
        check_additive(self.action, R.add, self.add, rgens,
                       "m(r+s) law fails at (m,r,s)=({f},{x},{g})")
        for m, r, s in product(gens, rgens, rgens):
            if self.action[m][R.mul[r][s]] != self.action[self.action[m][r]][s]:
                raise AxiomError(f"m(rs) law fails at (m,r,s)=({m},{r},{s})")

    @lazy
    def column_preimages(self) -> tuple[tuple[int, ...], ...]:
        """The mask of {x : x.r = v}, indexed by r in R, then v in M (R_R: the ring's)."""
        if self.is_ring_as_module():
            return self.ring.column_preimages
        return preimage_masks(zip(*self.action), self.size)

    def act(self, m: int, r: int) -> int:
        check_elements(self, m)
        check_elements(self.ring, r)
        return self.action[m][r]

    def sub(self, x: int, y: int) -> int:
        check_elements(self, x, y)
        return self.add[x][self.neg[y]]


# -- element sets ----------------------------------------------------------------


def cyclic_submodule(M: FiniteModule, m: int) -> frozenset[int]:
    """mR = {m.r : r in R}"""
    if not 0 <= m < M.size:
        check_elements(M, m)
    return frozenset(M.action[m])


def right_ann(M: FiniteModule, m: int) -> frozenset[int]:
    """r_R(m) = {r : m.r = 0}"""
    if not 0 <= m < M.size:
        check_elements(M, m)
    return frozenset(compress(M.ring.element_pool, map(eq, M.action[m], repeat(M.zero))))


def is_direct_sum(M: FiniteModule, a, b, target) -> bool:
    """A + B = target with A intersect B = {0}, for sets of elements of M."""
    return (set(a).intersection(b) == {M.zero}
            and frozenset(M.add[x][y] for x in a for y in b) == target)


# -- constructors ----------------------------------------------------------------


def build_zm_over_zn(m: int, n: int) -> FiniteModule:
    """Z_m as a Z_n-module via x.r = x*(r mod m); requires m | n."""
    if m < 1 or n < 1:
        raise SpecError("moduli must be positive")
    if n % m != 0:
        raise SpecError(f"action ill-defined: {shown(m)} does not divide {shown(n)}")
    ring, name = build_zn(n), f"Z{m}/Z{n}"
    if m == n:
        return FiniteModule(ring, ring.add, ring.mul, name=name)
    check_size(m, MAX_MODULE_SIZE, "module")
    return FiniteModule._derived(ring, *cyclic_tables(m, n), 0, [-x % m for x in range(m)],
                                 name=name)


def build_ring_as_module(ring: FiniteRing) -> FiniteModule:
    """R as a right module over itself (action = ring multiplication)."""
    return FiniteModule(ring, ring.add, ring.mul, name=f"{ring.name}_R")


def build_module_from_tables(ring: FiniteRing, add, action, *, name=None) -> FiniteModule:
    """Validated module from raw tables; failures name the violated law."""
    return FiniteModule(ring, add, action, name=name or "tables")


def module_to_spec(module: FiniteModule) -> dict:
    """Definition-file form of any module (always the explicit-tables kind)."""
    from .rings import ring_to_spec
    return {"kind": "tables", "name": module.name, "ring": ring_to_spec(module.ring),
            "size": module.size,
            "add": [list(row) for row in module.add],
            "action": [list(row) for row in module.action]}


def module_from_spec(spec: dict) -> FiniteModule:
    """Build a module from its definition-file form (already JSON-decoded)."""
    kind = spec_field(spec, "kind", "module")
    if kind == "ZmOverZn":
        return build_zm_over_zn(spec_int(spec, "m", kind), spec_int(spec, "n", kind))
    if kind == "ringAsModule":
        return build_ring_as_module(ring_from_spec(spec_field(spec, "ring", kind)))
    if kind == "tables":
        ring, add, action = (spec_field(spec, key, kind) for key in ("ring", "add", "action"))
        spec_size(spec, add, kind)
        return build_module_from_tables(ring_from_spec(ring), add, action,
                                        name=spec_str(spec, "name", kind))
    raise SpecError(f"unknown module kind {reprlib.repr(kind)}")
