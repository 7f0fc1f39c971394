"""Operation tables on 0..n-1, as lists of rows: the law checks that rings and modules
share, on additive generators (see ``FiniteRing.validate``), and table builders."""

from __future__ import annotations

import math
import reprlib
from itertools import chain, product


class AxiomError(ValueError):
    """A structure table violates one of its defining laws."""


class lazy:
    """A family computed on first read and kept in the object's __dict__ under its name, where
    later reads find it.  No lock: two first reads at once may each compute it, to equal values."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        obj.__dict__[self.name] = value = self.func(obj)
        return value


def shown(n: int) -> str:
    """n for a message, or past 20 digits their count: str() refuses n past 4300 digits."""
    if (size := abs(n)) < 10 ** 20:
        return str(n)
    k = int(math.log10(size)) + 1  # the float log is one off near some powers of ten
    return f"<{k + (size >= 10 ** k) - (size < 10 ** (k - 1))} digits>"


def checked_table(table, rows: int, cols: int, bound: int, label: str) -> list[list[int]]:
    """A copy of ``table``, checked to be ``rows`` lists of ``cols`` ints in 0..bound-1."""
    if (not isinstance(table, (list, tuple)) or len(table) != rows
            or not all(isinstance(row, (list, tuple)) and len(row) == cols for row in table)):
        raise AxiomError(f"{label} table is not {rows}x{cols}")
    # the types first: a set of the values would refuse an unhashable cell
    if not (set(map(type, chain.from_iterable(table))) <= {int}
            and set(chain.from_iterable(table)) <= set(range(bound))):
        i, j, v = next((i, j, v) for i, row in enumerate(table) for j, v in enumerate(row)
                       if type(v) is not int or not 0 <= v < bound)
        shown_v = shown(v) if type(v) is int else reprlib.repr(v)  # truncated
        raise AxiomError(f"{label}[{i}][{j}] = {shown_v} is not in 0..{bound - 1}")
    return [list(row) for row in table]


def identity_of(table) -> int | None:
    """The e with table[e][x] = x = table[x][e] for every x, if there is one."""
    ident = list(range(len(table)))
    return next((e for e, col in enumerate(zip(*table)) if table[e] == ident == list(col)), None)


def check_size(n: int, cap: int, kind: str) -> None:
    """AxiomError when a carrier of n elements is over ``cap``, before any table is built."""
    if n > cap:
        raise AxiomError(f"{kind} size {shown(n)} exceeds cap {cap}")


def additive_group(add, cap: int, kind: str) -> tuple[list[list[int]], int, list[int]]:
    """Check ``add`` as the addition of an abelian group on 0..n-1, n <= cap: shape and
    range, a zero, negatives and commutativity (associativity is left to the caller's
    validate).  Returns a copy of the table, the zero and the negatives."""
    if not isinstance(add, (list, tuple)):
        raise AxiomError(f"{kind} add table is not a list of rows")
    n = len(add)
    check_size(n, cap, kind)
    add = checked_table(add, n, n, n, f"{kind} add")
    zero = identity_of(add)
    if zero is None:  # also when the carrier is empty
        raise AxiomError(f"{kind} has no additive identity")
    neg = [row.index(zero) if zero in row else None for row in add]
    if None in neg:
        raise AxiomError(f"{kind} element {neg.index(None)} has no additive inverse")
    if add != [list(col) for col in zip(*add)]:
        a, b = next((a, b) for a in range(n) for b in range(a) if add[a][b] != add[b][a])
        raise AxiomError(f"{kind} addition not commutative at (a,b)=({a},{b})")
    return add, zero, neg


def greedy_generators(table, elements, identity: int) -> tuple[int, ...]:
    """Each of ``elements`` (in order, ``identity`` last) not reached from those before it
    by ``table`` with one of them at a time, in O(n |G|).  In a finite group, such as the
    additive group or the units under *, they generate all of ``elements``: x<G> = <G>."""
    span, gens = set(), []
    for x in sorted(elements, key=identity.__eq__):
        if x not in span:
            gens.append(x)
            todo = [x]
            while todo:
                y = todo.pop()
                if y not in span:
                    span.add(y)
                    todo += [table[y][g] for g in gens]
    return tuple(gens)


def check_add_associative(add, gens, label: str) -> None:
    """Light's test: (a+g)+c = a+(g+c) for all a, c and every generator g in ``gens``
    (see ``FiniteRing.validate`` for why that suffices)."""
    for g, a in product(gens, range(len(add))):
        a_plus, ag_plus = add[a], add[add[a][g]]
        if ag_plus != [a_plus[v] for v in add[g]]:
            c = next(c for c, v in enumerate(add[g]) if ag_plus[c] != a_plus[v])
            raise AxiomError(f"{label} not associative at (a,b,c)=({a},{g},{c})")


def check_additive(maps, dom_add, cod_add, gens, law: str) -> None:
    """f(x+g) = f(x)+f(g) for each value table f = maps[i], all x and every generator g
    of ``dom_add``, or AxiomError(law.format(f=i, x=x, g=g)); this makes f additive."""
    for g, (i, f) in product(gens, enumerate(maps)):
        plus_fg = cod_add[f[g]]
        if [f[v] for v in dom_add[g]] != [plus_fg[v] for v in f]:
            x = next(x for x, v in enumerate(dom_add[g]) if f[v] != plus_fg[f[x]])
            raise AxiomError(law.format(f=i, x=x, g=g))


def preimage_masks(tables, size: int) -> tuple[tuple[int, ...], ...]:
    """For each value table t, the mask of {x : t[x] = v} by v; equal tables (the columns
    r and r + m of Z_m over Z_n) share one tuple of masks."""
    out, bits, seen = [], [], {}
    for t in map(tuple, tables):
        if t not in seen:
            bits += [1 << x for x in range(len(bits), len(t))]
            masks = [0] * size
            for bit, v in zip(bits, t):
                masks[v] |= bit
            seen[t] = tuple(masks)
        out.append(seen[t])
    return tuple(out)


def cyclic_tables(m: int, n: int) -> tuple[list[list[int]], list[list[int]]]:
    """The + table of Z_m and the table of x.r = xr mod m for r in Z_n, from row slices:
    rotations of 0..m-1, and every x-th entry of 0..m-1 repeated n times."""
    elems = list(range(m))
    cycle = elems * n  # cycle[k] = k mod m
    return ([elems[x:] + elems[:x] for x in elems],
            [cycle[0:x * n:x] if x else [0] * n for x in elems])
