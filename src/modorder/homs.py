"""Hom-space enumeration: Hom_R(M, N), the dual M* and the endomorphism ring.

Homs are extended one generator at a time.  With A the submodule that the
earlier greedy generators of M span, a hom h on A extends to A + gR along
each image u of the next generator g by a + g.r -> h(a) + u.r, and is dropped
on the first element given two values.  A well-defined extension is a hom:
A is a submodule, so sums and multiples of elements a + g.r keep that form,
and h is additive and right-linear on A.  So no completed table needs a
re-check, and none is missed, as every hom restricts to a hom on A.  Before
each step the work of extending the list of partial homs, len(partial) * |N|
copied tables of |M| entries plus at most |A| * |R| lookups each, is bounded,
and a search whose bound exceeds HOM_BUDGET is refused with SpecError.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .modules import FiniteModule, build_ring_as_module, cyclic_submodule, right_ann
from .rings import MAX_RING_SIZE, AxiomError, FiniteRing, SpecError, same_ring

HOM_BUDGET = 2 ** 24  # table entries copied plus lookups made in one extension step


@dataclass(frozen=True)
class ModHom:
    """Additive, right-R-linear map between modules over the same ring."""

    dom: FiniteModule
    cod: FiniteModule
    table: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.table[x]

    def is_valid(self) -> bool:
        M, N, t = self.dom, self.cod, self.table
        return (all(t[M.add[x][y]] == N.add[t[x]][t[y]]
                    for x in range(M.size) for y in range(M.size))
                and all(t[M.action[x][r]] == N.action[t[x]][r]
                        for x in range(M.size) for r in range(M.ring.size)))


def _chain(M: FiniteModule):
    """Each greedy generator g of M with the submodule A that the earlier ones span."""
    span = {M.zero}
    for x in range(M.size):
        if x not in span:
            yield x, span
            span = {M.add[xr][a] for xr in set(M.action[x]) for a in span}


def generating_set(M: FiniteModule) -> list[int]:
    """Greedy generators: each one strictly enlarges the submodule the earlier ones span."""
    return [g for g, _ in _chain(M)]


def _extend(M: FiniteModule, N: FiniteModule, span: set[int], h: list[int], g: int, u: int):
    """h, known on the submodule span, extended by a + g.r -> h(a) + u.r; None on conflict."""
    t = h.copy()
    for gr, ur in set(zip(M.action[g], N.action[u])):
        add_gr, add_ur = M.add[gr], N.add[ur]
        for a in span:
            z, v = add_gr[a], add_ur[h[a]]
            if t[z] < 0:
                t[z] = v
            elif t[z] != v:
                return None
    return t


def hom_group(M: FiniteModule, N: FiniteModule) -> list[ModHom]:
    """All right-linear maps M -> N, sorted by value table; SpecError beyond HOM_BUDGET."""
    if not same_ring(M.ring, N.ring):
        raise ValueError("hom_group needs modules over the same ring")
    partial = [[N.zero if x == M.zero else -1 for x in range(M.size)]]
    for g, span in _chain(M):
        steps = len(partial) * N.size * (M.size + len(span) * M.ring.size)
        if steps > HOM_BUDGET:
            raise SpecError(f"Hom({M.name}, {N.name}) needs up to {steps} steps to extend "
                            f"along generator {g}, beyond budget {HOM_BUDGET}")
        partial = [t for h in partial for u in range(N.size)
                   if (t := _extend(M, N, span, h, g, u)) is not None]
    return [ModHom(M, N, tuple(t)) for t in sorted(partial)]


def dual(M: FiniteModule, ring_module: FiniteModule | None = None) -> list[ModHom]:
    """The dual M* = Hom(M, R_R), sorted by value table."""
    if ring_module is None:
        ring_module = build_ring_as_module(M.ring)
    return hom_group(M, ring_module)


class EndoRing(FiniteRing):
    """S = End_R(M) presented as a FiniteRing.

    Addition is pointwise; multiplication is composition with
    (f.g)(x) = f(g(x)), so M is a left S-module via f.m = f(m).  All
    ring-core predicates apply unchanged.  An identity involution is
    installed automatically when S is commutative (inherited behaviour);
    otherwise S carries an involution only if set explicitly.
    """

    def __init__(self, module: FiniteModule, maps: list[ModHom], involution=None):
        self.module = module
        self.maps = list(maps)
        if len(self.maps) > MAX_RING_SIZE:
            raise AxiomError(f"End({module.name}) has {len(self.maps)} elements, "
                             f"beyond cap {MAX_RING_SIZE}")
        self._index = {h.table: i for i, h in enumerate(self.maps)}
        add = [[self._index[tuple(module.add[x.table[k]][y.table[k]]
                                  for k in range(module.size))]
                for y in self.maps] for x in self.maps]
        mul = [[self._index[tuple(x.table[y.table[k]] for k in range(module.size))]
                for y in self.maps] for x in self.maps]
        super().__init__(add, mul, involution=involution, name=f"End({module.name})")
        assert self.maps[self.zero].table == (module.zero,) * module.size
        assert self.maps[self.one].table == tuple(range(module.size))

    def apply(self, f: int, m: int) -> int:
        return self.maps[f].table[m]

    def index_of(self, table) -> int:
        return self._index[tuple(table)]


def endo_ring(M: FiniteModule, involution=None) -> EndoRing:
    """S = End(M).  A commutative S gets the identity involution for free;
    a noncommutative S carries one only if an explicit permutation is given
    (it is validated against the ring laws like any other involution)."""
    return EndoRing(M, hom_group(M, M), involution=involution)


def smash(M: FiniteModule, S: EndoRing, m: int, phi) -> int:
    """Index in S of the endomorphism x -> m.phi(x).

    phi may be a ModHom into R_R or a raw value table.  The map is phi
    followed by the hom r -> m.r from R_R to M, so it lies in S.
    """
    table = phi.table if isinstance(phi, ModHom) else tuple(phi)
    return S.index_of(tuple(M.action[m][table[x]] for x in range(M.size)))


def left_ann_S(M: FiniteModule, S: EndoRing, m: int) -> frozenset[int]:
    """l_S(m) = {f in S : f(m) = 0}, as a set of S indices."""
    return frozenset(i for i, h in enumerate(S.maps) if h.table[m] == M.zero)


def s_orbit(S: EndoRing, m: int) -> frozenset[int]:
    """Sm = {f(m) : f in S}; an additive subgroup, not a submodule in general."""
    return frozenset(h.table[m] for h in S.maps)


def m_times(M: FiniteModule, a: int) -> frozenset[int]:
    """Ma = {x.a : x in M}; an additive subgroup, not a submodule in general."""
    return frozenset(M.action[x][a] for x in range(M.size))


def dual_as_module(M: FiniteModule, functionals) -> FiniteModule:
    """M* with pointwise addition and the action (phi.r)(x) = phi(x).r.

    That action is right-linear only when R is commutative; noncommutative
    base rings are rejected rather than silently misrepresented.
    """
    R = M.ring
    if not R.is_commutative():
        raise ValueError("dual carries no right-module structure: ring not commutative")
    index = {phi.table: i for i, phi in enumerate(functionals)}
    add = [[index[tuple(R.add[x.table[k]][y.table[k]] for k in range(M.size))]
            for y in functionals] for x in functionals]
    action = [[index[tuple(R.mul[x.table[k]][r] for k in range(M.size))]
               for r in range(R.size)] for x in functionals]
    return FiniteModule(R, add, action, name=f"dual({M.name})")


class ModuleContext:
    """One module together with its lazily computed dual and endomorphism ring.

    Also memoizes the annihilator sets, cyclic submodules and regularity
    verdicts that every order relation keeps probing.  Contexts are cheap to
    create; the heavy parts build on first use and are immutable afterwards.
    """

    def __init__(self, module: FiniteModule, name: str | None = None,
                 endo_involution=None):
        self.module = module
        self.name = name or module.name
        self.endo_involution = endo_involution

    @cached_property
    def ring_module(self) -> FiniteModule:
        return build_ring_as_module(self.module.ring)

    @cached_property
    def dual(self) -> tuple[ModHom, ...]:
        return tuple(dual(self.module, self.ring_module))

    @cached_property
    def dual_tables(self) -> tuple[tuple[int, ...], ...]:
        """The value tables of M*, in order: the pool of functional witnesses."""
        return tuple(phi.table for phi in self.dual)

    @cached_property
    def regular(self) -> tuple:
        """The regularity verdict of every element, in element order."""
        from .orders import REGULARITY  # the relation table lives with the orders
        return tuple(REGULARITY(self, m, m) for m in range(self.module.size))

    @cached_property
    def is_regular(self) -> bool:
        """Whether every element is regular, i.e. the module is regular."""
        return all(v.holds for v in self.regular)

    @cached_property
    def endos(self) -> EndoRing:
        return endo_ring(self.module, involution=self.endo_involution)

    @cached_property
    def l_S(self) -> tuple[frozenset[int], ...]:
        """l_S(m) = {f in S : f(m) = 0}, the left annihilator in S, indexed by m."""
        return tuple(left_ann_S(self.module, self.endos, m) for m in range(self.module.size))

    @cached_property
    def r_R(self) -> tuple[frozenset[int], ...]:
        """r_R(m) = {r in R : m.r = 0}, the right annihilator in R, indexed by m."""
        return tuple(right_ann(self.module, m) for m in range(self.module.size))

    @cached_property
    def cyclic(self) -> tuple[frozenset[int], ...]:
        """mR, indexed by m."""
        return tuple(cyclic_submodule(self.module, m) for m in range(self.module.size))
