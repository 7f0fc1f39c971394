"""Hom-space enumeration: Hom_R(M, N), the dual M* and the endomorphism ring.

Enumeration strategy: pick a greedy generating set G of M, try every
assignment of images to G, extend each assignment over the additive/action
span by fixed-point closure (rejecting on any inconsistency) and finally
verify the completed table against full additivity and linearity.  The
candidate space is |N|^|G| instead of |N|^|M|.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .modules import FiniteModule, Submodule, build_ring_as_module, right_ann
from .rings import FiniteRing, same_ring


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


def generating_set(M: FiniteModule) -> list[int]:
    """Greedy generators: each one strictly enlarges the add/action span."""
    gens: list[int] = []
    span = _span(M, ())
    for x in range(M.size):
        if x not in span:
            gens.append(x)
            span = _span(M, gens)
    return gens


def _span(M: FiniteModule, seeds) -> set[int]:
    out = {M.zero, *seeds}
    changed = True
    while changed:
        changed = False
        cur = list(out)
        for x in cur:
            for r in range(M.ring.size):
                z = M.action[x][r]
                if z not in out:
                    out.add(z)
                    changed = True
            for y in cur:
                z = M.add[x][y]
                if z not in out:
                    out.add(z)
                    changed = True
    return out


def _extend(M: FiniteModule, N: FiniteModule, gens, images):
    """Close a generator assignment under + and action; None on conflict."""
    img = [-1] * M.size
    img[M.zero] = N.zero
    for g, u in zip(gens, images):
        if img[g] >= 0 and img[g] != u:
            return None
        img[g] = u
    changed = True
    while changed:
        changed = False
        known = [x for x in range(M.size) if img[x] >= 0]
        for x in known:
            ix = img[x]
            for r in range(M.ring.size):
                z, v = M.action[x][r], N.action[ix][r]
                if img[z] < 0:
                    img[z] = v
                    changed = True
                elif img[z] != v:
                    return None
        known = [x for x in range(M.size) if img[x] >= 0]
        for x in known:
            for y in known:
                z, v = M.add[x][y], N.add[img[x]][img[y]]
                if img[z] < 0:
                    img[z] = v
                    changed = True
                elif img[z] != v:
                    return None
    if any(v < 0 for v in img):  # generators failed to span M
        return None
    return tuple(img)


def hom_group(M: FiniteModule, N: FiniteModule) -> list[ModHom]:
    """All right-linear maps M -> N, sorted by value table."""
    if not same_ring(M.ring, N.ring):
        raise ValueError("hom_group needs modules over the same ring")
    gens = generating_set(M)
    found = []
    for images in product(range(N.size), repeat=len(gens)):
        table = _extend(M, N, gens, images)
        if table is None:
            continue
        h = ModHom(M, N, table)
        if h.is_valid():
            found.append(h)
    found.sort(key=lambda h: h.table)
    return found


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

    phi may be a ModHom into R_R or a raw value table.  The map is always
    additive and linear, so a lookup failure signals an enumeration bug.
    """
    table = phi.table if isinstance(phi, ModHom) else tuple(phi)
    smashed = tuple(M.action[m][table[x]] for x in range(M.size))
    try:
        return S.index_of(smashed)
    except KeyError:
        raise RuntimeError(
            f"smash({m}, ...) produced a map missing from End({M.name}); "
            "hom enumeration is incomplete") from None


def eval_pair(phi, m: int) -> int:
    """phi(m), as a ring element."""
    table = phi.table if isinstance(phi, ModHom) else phi
    return table[m]


def left_ann_S(M: FiniteModule, S: EndoRing, m: int) -> frozenset[int]:
    """l_S(m) = {f in S : f(m) = 0}, as a set of S indices."""
    return frozenset(i for i, h in enumerate(S.maps) if h.table[m] == M.zero)


def image_set(S: EndoRing, f: int) -> Submodule:
    """fM, materialized (it is a genuine submodule)."""
    M = S.module
    return Submodule(M, frozenset(S.maps[f].table))


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
    def _l_S(self) -> tuple[frozenset[int], ...]:
        return tuple(left_ann_S(self.module, self.endos, m)
                     for m in range(self.module.size))

    @cached_property
    def _r_R(self) -> tuple[frozenset[int], ...]:
        return tuple(right_ann(self.module, m) for m in range(self.module.size))

    def l_S(self, m: int) -> frozenset[int]:
        """Left annihilator of a module element inside S."""
        return self._l_S[m]

    def r_R(self, m: int) -> frozenset[int]:
        """Right annihilator of a module element inside R."""
        return self._r_R[m]

    @cached_property
    def _l_S_ring(self) -> tuple[frozenset[int], ...]:
        S = self.endos
        return tuple(S.left_ann(f) for f in range(S.size))

    def l_S_of_endo(self, f: int) -> frozenset[int]:
        """Left annihilator of f taken inside the ring S itself."""
        return self._l_S_ring[f]

    @cached_property
    def _r_R_ring(self) -> tuple[frozenset[int], ...]:
        R = self.module.ring
        return tuple(R.right_ann(a) for a in range(R.size))

    def r_R_of_elem(self, a: int) -> frozenset[int]:
        """Right annihilator of a ring element inside R."""
        return self._r_R_ring[a]

    @cached_property
    def cyclic(self) -> tuple[frozenset[int], ...]:
        M = self.module
        return tuple(frozenset(M.action[m][r] for r in range(M.ring.size))
                     for m in range(M.size))
