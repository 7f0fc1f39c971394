"""Hom-space enumeration: Hom_R(M, N), the dual M* and the endomorphism ring.

Homs are extended one generator at a time.  The greedy generators of M are
taken from its elements in order of decreasing |xR|, ties by index, so a
cyclic module, R_R included, needs one step: its first candidate generates
it.  With A the submodule that the earlier generators span, a hom h on A
extends to A + gR along an image u of the next generator g by
a + g.r -> h(a) + u.r if and only if u passes the conductor test: u.r = h(g.r)
for every r in the conductor {r : g.r in A}.  Only if: g.r in A has the value
h(g.r) and, as 0 + g.r, the value u.r.  If: when a + g.r = a' + g.r', s = r - r'
has g.s = a' - a in A, so u.s = h(a') - h(a) and h(a) + u.r = h(a') + u.r'.  (For
a cyclic piece this is Hom_R(R/I, N) = {u in N : uI = 0}; Anderson & Fuller,
Rings and Categories of Modules.)  A well-defined extension is a hom: A is a
submodule, so sums and multiples of elements a + g.r keep that form, and h is
additive and right-linear on A.  So no completed table needs a re-check, and
none is missed, as every hom restricts to a hom on A.  The conductor, and one
(a, r) for each element of A + gR outside A, are found once per step; each u
then costs one lookup per element of the conductor, and an accepted u one
copied table with its new entries written.  Before each step the work of
extending the list of partial homs, len(partial) * |N| copied tables of |M|
entries plus at most |A| * |R| lookups each, is bounded, and a search whose
bound exceeds HOM_BUDGET is refused with SpecError.  Every hom of a cyclic gR is
g.r -> f(g).r, so EndoRing reads S's tables off M's through f -> f(g), unchecked.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import eq

from .modules import FiniteModule, build_ring_as_module, cyclic_submodule, right_ann
from .rings import MAX_RING_SIZE, FiniteRing, SpecError, same_ring
from .tables import AxiomError, lazy, preimage_masks
from .verdicts import check_elements

HOM_BUDGET = 2 ** 24  # table entries copied plus lookups made in one extension step


def is_hom(M: FiniteModule, N: FiniteModule, t) -> bool:
    """Whether the value table t is an additive, right-linear map M -> N, checked on
    every sum and every product (a reference check: hom_group needs none)."""
    return (all(t[M.add[x][y]] == N.add[t[x]][t[y]]
                for x in range(M.size) for y in range(M.size))
            and all(t[M.action[x][r]] == N.action[t[x]][r]
                    for x in range(M.size) for r in range(M.ring.size)))


def _chain(M: FiniteModule) -> tuple:
    """Each greedy generator g of M, walking the x by decreasing |xR| then by index, with
    the submodule A that the earlier ones span, the conductor as the pairs (r, g.r) with
    g.r in A, and one (a, r) with z = a + g.r for each z of A + gR outside A.  Walked once
    per module object and kept on it: hom_group and generating_set read the same steps."""
    if (steps := vars(M).get("_hom_chain")) is not None:
        return steps
    steps, span = [], {M.zero}
    for x in sorted(range(M.size), key=lambda x: -len(set(M.action[x]))):
        if x not in span:
            conductor, new = [], {}
            for r, xr in enumerate(M.action[x]):
                if xr in span:
                    conductor.append((r, xr))
                elif xr not in new:  # a coset xr + A that no earlier r reached
                    new.update((M.add[xr][a], (a, r)) for a in span)
            steps.append((x, span, conductor, new))
            span = span | new.keys()
    M._hom_chain = steps = tuple(steps)
    return steps


def generating_set(M: FiniteModule) -> list[int]:
    """Greedy generators: each one strictly enlarges the submodule the earlier ones span."""
    return [g for g, *_ in _chain(M)]


def _extend(N: FiniteModule, conductor, new, h: list[int], u: int):
    """h, known on the submodule A, extended by a + g.r -> h(a) + u.r for the conductor and
    the new elements of one _chain step; None unless u.r = h(g.r) on the conductor."""
    ur = N.action[u]
    for r, gr in conductor:
        if ur[r] != h[gr]:
            return None
    t, add = h.copy(), N.add
    for z, (a, r) in new.items():
        t[z] = add[h[a]][ur[r]]
    return t


def hom_group(M: FiniteModule, N: FiniteModule) -> list[tuple[int, ...]]:
    """Value tables of all right-linear maps M -> N, sorted; SpecError beyond HOM_BUDGET.
    Hom(M, M) is searched once per module object and kept on it: End(M) reads it, and so
    does M* where M is R_R."""
    if not same_ring(M.ring, N.ring):
        raise ValueError("hom_group needs modules over the same ring")
    if N is M and (found := vars(M).get("_endomorphisms")) is not None:
        return list(found)
    partial = [[N.zero if x == M.zero else -1 for x in range(M.size)]]
    for g, span, conductor, new in _chain(M):
        steps = len(partial) * N.size * (M.size + len(span) * M.ring.size)
        if steps > HOM_BUDGET:
            raise SpecError(f"Hom({M.name}, {N.name}) needs up to {steps} steps to extend "
                            f"along generator {g}, beyond budget {HOM_BUDGET}")
        partial = [t for h in partial for u in range(N.size)
                   if (t := _extend(N, conductor, new, h, u)) is not None]
    found = sorted(map(tuple, partial))
    if N is M:
        M._endomorphisms = tuple(found)
    return found


def dual(M: FiniteModule, ring_module: FiniteModule | None = None) -> list[tuple[int, ...]]:
    """The value tables of the dual M* = Hom(M, R_R), sorted."""
    if ring_module is None:
        ring_module = build_ring_as_module(M.ring)
    return hom_group(M, ring_module)


def _hom_tables(M: FiniteModule, N: FiniteModule, maps, row):
    """The tables of + and of one more operation on ``maps``, the sorted distinct homs
    M -> N of hom_group, as indices into ``maps``.  A hom is fixed by its values on
    generating_set(M), so each result is looked up by those: ``row(t, key, cols)`` gives
    each generator's values along the row of the map t with values ``key``, where cols[j]
    lists every map's value at generator j."""
    gens = generating_set(M) or [M.zero]  # the zero module is keyed on its one element
    cols = [[t[g] for t in maps] for g in gens]
    index = {key: i for i, key in enumerate(zip(*cols))}

    def plus(_, key, cols):
        return [map(N.add[u].__getitem__, col) for u, col in zip(key, cols)]
    return [[list(map(index.__getitem__, zip(*along(t, key, cols))))
             for t, key in zip(maps, index)] for along in (plus, row)]


class EndoRing(FiniteRing):
    """S = End_R(M) presented as a FiniteRing, each element a value table over M.

    Addition is pointwise; multiplication is composition with (f.g)(x) = f(g(x)), so M
    is a left S-module via f.m = f(m).  The elements are hom_group(module, module), in
    its order; AxiomError beyond MAX_RING_SIZE of them.  S of a module with one greedy
    generator g (0 for the zero module, which is 0R), given no involution, is derived, its
    tables read off M's through f -> f(g) and unchecked, as S is a ring of maps; any other S
    is built from the homs and checked in full.  A commutative S gets the identity
    involution, a noncommutative one only a given one.
    """

    def __init__(self, module: FiniteModule, involution=None):
        self.module, name = module, f"End({module.name})"
        self.maps = tuple(hom_group(module, module))
        if len(self.maps) > MAX_RING_SIZE:
            raise AxiomError(f"{name} has {len(self.maps)} elements, beyond cap {MAX_RING_SIZE}")
        if len(gens := generating_set(module) or [module.zero]) == 1 and involution is None:
            self._derive(module, gens[0], name)
        else:
            add, mul = _hom_tables(module, module, self.maps, lambda t, _, cols: [
                map(t.__getitem__, col) for col in cols])
            super().__init__(add, mul, involution=involution, name=name)

    def _derive(self, M: FiniteModule, g: int, name: str):
        """S of a cyclic M = gR through u: f -> f(g), as Hom_R(gR, M) = {u : u.r_R(g) = 0}
        by g.r -> u.r.  Once u is checked to be a bijection onto that set and each f to be
        g.r -> u_f.r, f + h is g.r -> (u_f + u_h).r and fh is g.r -> u_f.(r_h r) for any r_h
        with g.r_h = u_h: S's tables are read off M's, and S is a ring of maps."""
        g_times, zero, u = M.action[g], M.zero, [t[g] for t in self.maps]
        killed = set.intersection(*({x for x, row in enumerate(M.action) if row[r] == zero}
                                    for r in right_ann(M, g)))  # the u with u.r_R(g) = 0
        at_x, u_times = list(zip(*self.maps)), list(zip(*map(M.action.__getitem__, u)))
        if sorted(u) != sorted(killed) or list(map(at_x.__getitem__, g_times)) != u_times:
            raise AssertionError(f"{name}: a hom of {M.name} is not g.r -> f(g).r")
        q = [0] * M.size  # q[u[i]] = i, kept for smash
        for i, v in enumerate(u):
            q[v] = i
        self.by_generator = g, q
        rs = list(map(dict(zip(g_times, M.ring.element_pool)).__getitem__, u))  # g.rs[i] = u[i]
        self._install([[q[v] for v in map(M.add[a].__getitem__, u)] for a in u],
                      [[q[v] for v in map(M.action[a].__getitem__, rs)] for a in u],
                      q[zero], q[g], [q[M.neg[a]] for a in u], name=name,
                      commutative=M.ring.is_commutative() or None)
        self._factors = rs if M.ring.is_commutative() else None  # f(g.r) = g.r_f.r = g.r.r_f

    by_generator = None  # (g, the index of the f with f(g) = v, by v) where S was derived
    _factors = None  # the r_f with f = x -> x.r_f, by f, where S was derived, R commutative
    _index = lazy(lambda self: {t: i for i, t in enumerate(self.maps)})  # for index_of

    def index_of(self, table) -> int:
        return self._index[tuple(table)]

    @lazy
    def preimages(self) -> tuple[tuple[int, ...], ...]:
        """The mask of {x : f(x) = v}, indexed by f, then v in M; ker f is the mask at
        v = 0.  Where f is x -> x.r_f, M's column_preimages at r_f, the same objects."""
        if self._factors is None:
            return preimage_masks(self.maps, self.module.size)
        return tuple(map(self.module.column_preimages.__getitem__, self._factors))


def endo_ring(M: FiniteModule, involution=None) -> EndoRing:
    """S = End(M) (see EndoRing); a given involution is checked against the ring laws."""
    return EndoRing(M, involution=involution)


def smash(M: FiniteModule, S: EndoRing, m: int, phi) -> int:
    """Index in S of the endomorphism x -> m.phi(x), for phi the value table of a
    functional: phi followed by the hom r -> m.r from R_R to M, so it lies in S.  Where S
    was derived from one generator g, it is the f with f(g) = m.phi(g)."""
    if not 0 <= m < M.size:
        check_elements(M, m)
    if S.by_generator is None:
        return S.index_of(map(M.action[m].__getitem__, phi))
    g, index = S.by_generator
    return index[M.action[m][phi[g]]]


def dual_as_module(M: FiniteModule) -> FiniteModule:
    """M* = dual(M) with pointwise addition and the action (phi.r)(x) = phi(x).r.

    That action is right-linear only when R is commutative; noncommutative
    base rings are rejected rather than silently misrepresented.
    """
    R = M.ring
    if not R.is_commutative():
        raise ValueError("dual carries no right-module structure: ring not commutative")
    ring_module = build_ring_as_module(R)
    add, action = _hom_tables(M, ring_module, dual(M, ring_module),
                              lambda _, key, __: [R.mul[u] for u in key])
    return FiniteModule(R, add, action, name=f"dual({M.name})")


class ModuleContext:
    """One module together with its lazily computed dual and endomorphism ring.

    Also memoizes the element-indexed families (annihilators, cyclic submodules, the
    fibre masks of M*) and the mask of regular elements that every order relation keeps
    probing, and (``clause_memo``, see ``Relation``) the relations' columns and their ORs.
    Contexts are cheap to create; the heavy parts build on first use and are immutable
    afterwards.
    """

    def __init__(self, module: FiniteModule, name: str | None = None,
                 endo_involution=None):
        self.module, self.name, self.endo_involution = module, name or module.name, endo_involution

    @lazy
    def ring_module(self) -> FiniteModule:
        """R_R: the module itself where it is R_R, so that M* and End(M) are one search."""
        M = self.module
        return M if M.is_ring_as_module() else build_ring_as_module(M.ring)

    @lazy
    def dual(self) -> tuple[tuple[int, ...], ...]:
        """The value tables of M*, in order: the pool of functional witnesses."""
        return tuple(dual(self.module, self.ring_module))

    @lazy
    def regularity_witnesses(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """For each m, the phi of M* with m = m.phi(m), in order: the t whose minus-dual
        column covers m at m."""
        return tuple(tuple(t for t in self.dual if row[t[m]] == m)
                     for m, row in enumerate(self.module.action))

    @lazy
    def regular(self) -> int:
        """The mask of the regular elements, the m with m = m.phi(m) for some phi in M*."""
        return sum(1 << m for m, phis in enumerate(self.regularity_witnesses) if phis)

    @lazy
    def endos(self) -> EndoRing:
        return endo_ring(self.module, involution=self.endo_involution)

    @lazy
    def l_S(self) -> tuple[frozenset[int], ...]:
        """l_S(m) = {f in S : f(m) = 0}, the left annihilator in S, indexed by m."""
        S, zero = self.endos, repeat(self.module.zero)
        return tuple(frozenset(compress(S.element_pool, map(eq, col, zero)))
                     for col in zip(*S.maps))

    @lazy
    def r_R(self) -> tuple[frozenset[int], ...]:
        """r_R(m) = {r in R : m.r = 0}, the right annihilator in R, indexed by m (R_R: the
        ring's right_anns)."""
        M = self.module
        return (M.ring.right_anns if M.is_ring_as_module()
                else tuple(right_ann(M, m) for m in range(M.size)))

    @lazy
    def dual_masks(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        """For each functional t of M*, the masks {x : t(x) = r}, indexed by r in R."""
        M, R = self.module, self.module.ring
        pres = (tuple(R.row_preimages[t[R.one]] for t in self.dual) if M.is_ring_as_module()
                else preimage_masks(self.dual, R.size))  # R_R: t is x -> t(1)x
        return dict(zip(self.dual, pres))

    @lazy
    def cyclic(self) -> tuple[frozenset[int], ...]:
        """mR, indexed by m."""
        return tuple(cyclic_submodule(self.module, m) for m in range(self.module.size))

    @lazy
    def summands(self) -> tuple[tuple[tuple[int, ...], ...], list[int], list[int]]:
        """Each distinct mR as a sorted tuple, in order of first m; for each m, the index
        of mR among them (the class of m); and for each m, |mR|."""
        first, classes = {}, []
        for cyc in self.cyclic:
            classes.append(first.setdefault(cyc, len(first)))
        return (tuple(tuple(sorted(cyc)) for cyc in first), classes, list(map(len, self.cyclic)))
