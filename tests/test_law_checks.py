"""The generator-based law checks against the brute-force oracles.

Besides rings and Z_m/Z_n, the tables include structures that break one law
alone: the near-ring of all maps on Z2 under composition (one distributive
law fails), unital F2-algebras of dimension 3 with random products (often
not associative) and F2^2 over Z2 x Z2 acting through random matrices
(m(r+s) or m(rs) fails alone).  All are relabelled at random, so the greedy
generators vary, and 0-3 table cells are overwritten.  The involution laws
are checked on rings that satisfy the ring laws, with a true involution (the
identity on a commutative ring, transpose on M2(Z2), products of those, or
the exchange (a, b) -> (b, a) on R x R) or with negation, relabelled at
random, in which 0-3 times an entry is overwritten or two entries are
exchanged.  Negation, and an exchange of two fixed points, keep the map
self-inverse, so the later involution laws fail first often enough.
Construction must fail exactly when some law fails, and the error must be
one of the failures the oracle lists, so it names a real violating element
or tuple.  Each law's check is complete once the laws checked before it
hold, so the error must also be about the first law, in checking order, that
fails anywhere.

The relation law checks and the Hasse reduction read row masks; they are
compared with cell-by-cell scans of the same relation as a grid of bools.
The relations are random partial orders and the minus-dual matrices of
Z_m/Z_n, each with 0-3 bits flipped, over random domains, and every check
must report the same outcome, counterexample and count of cells checked.
"""

from functools import cache, reduce
from operator import xor

from hypothesis import given, settings, strategies as st

import modorder as mo
from modorder.rings import MAX_RING_SIZE, AxiomError, FiniteRing, additive_group
from modorder.modules import MAX_MODULE_SIZE, FiniteModule

from modorder.laws import RelationMatrix
from modorder.verdicts import bits

from oracles import (equivalence_scan, involution_violations, module_law_violations,
                     partial_order_scan, relabel, ring_law_violations,
                     transitive_reduction_scan, unit_invariance_scan, zm_over_zn_tables)

RINGS = ["Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "Z9", "Z10", "Z11", "Z12",
         "Z2xZ2", "Z2xZ3", "Z2xZ4", "Z3xZ3", "Z2xZ2xZ2", "Z2xZ6", "M2(Z2)"]
MODULES = [(m, n) for n in range(1, 13) for m in range(1, n + 1) if n % m == 0]
RING_LAWS = ("no multiplicative identity", "addition not associative",
             "left distributivity fails", "right distributivity fails",
             "multiplication not associative")
INVOLUTION_LAWS = ("involution not self-inverse", "involution not additive",
                   "involution not anti-multiplicative")
MODULE_LAWS = ("module addition not associative", "unitality fails", "(m+n)r law fails",
               "m(r+s) law fails", "m(rs) law fails")


@cache
def named_ring(name):
    """A ring of RINGS by name, or M2(Z2) x Z_k as "M2(Z2)xZk"."""
    factors = [mo.build_matrix_ring(2) if f == "M2(Z2)" else mo.build_zn(int(f[1:]))
               for f in name.replace(")x", ") ").replace("x", " ").split()]
    return reduce(mo.build_product, factors)


def ring_tables(name):
    ring = named_ring(name)
    return ring.add, ring.mul


def near_ring_tables(opposite):
    """All maps on Z2, f at 2 f(0) + f(1), with pointwise + and f.g = f(g(x)) or g(f(x))."""
    maps = [(a, b) for a in range(2) for b in range(2)]
    add = [[2 * (f[0] ^ g[0]) + (f[1] ^ g[1]) for g in maps] for f in maps]
    mul = [[2 * f[g[0]] + f[g[1]] for g in maps] for f in maps]
    return add, [list(col) for col in zip(*mul)] if opposite else mul


def f2_algebra_tables(products):
    """F2^3 with basis 1, e1, e2 (bit i is the coefficient of e_i, e_0 = 1) and the
    bilinear product with e_i e_j = products[i-1][j-1] for i, j >= 1."""
    basis = [[1 << (i + j) if 0 in (i, j) else products[i - 1][j - 1] for j in range(3)]
             for i in range(3)]
    add = [[x ^ y for y in range(8)] for x in range(8)]
    mul = [[reduce(xor, (basis[i][j] for i in range(3) if x >> i & 1
                         for j in range(3) if y >> j & 1), 0) for y in range(8)]
           for x in range(8)]
    return add, mul


def f2_square_tables(a1, a0):
    """F2^2 over Z2 x Z2, where (a, b) != 0 acts by a A1 + b (I + A1) and 0 acts by A0,
    for 2x2 matrices given as 4 bits row by row.  It is a module exactly when A1 is
    idempotent and A0 = 0; with A0 != 0 the law m(r+s) fails first."""
    def apply(m, bits):
        return (bits[0] & m >> 1 ^ bits[1] & m) << 1 | (bits[2] & m >> 1 ^ bits[3] & m)
    a2 = [a ^ i for a, i in zip(a1, (1, 0, 0, 1))]
    add = [[x ^ y for y in range(4)] for x in range(4)]
    action = [[(apply(m, a1) if r >> 1 else 0) ^ (apply(m, a2) if r & 1 else 0)
               if r else apply(m, a0) for r in range(4)] for m in range(4)]
    return add, action


def exchange_tables(name):
    """R x R with the exchange (a, b)* = (b, a), an involution as R is commutative."""
    ring = named_ring(name)
    square, n = mo.build_product(ring, ring), ring.size
    return square.add, square.mul, [x % n * n + x // n for x in range(n * n)]


# The identity on commutative rings, transpose on M2(Z2) and products of those, or
# negation, which is additive and self-inverse but reverses products only when 2ab = 0.
INVOLUTION_SOURCES = st.one_of(
    st.sampled_from(RINGS + ["M2(Z2)xZ2", "M2(Z2)xZ3"]).map(named_ring).flatmap(
        lambda ring: st.sampled_from([(ring.add, ring.mul, ring.involution),
                                      (ring.add, ring.mul, ring.neg)])),
    st.sampled_from(["Z2", "Z3", "Z4", "Z2xZ2"]).map(exchange_tables))


RING_SOURCES = st.one_of(
    st.sampled_from(RINGS).map(ring_tables),
    st.booleans().map(near_ring_tables),
    st.lists(st.lists(st.integers(0, 7), min_size=2, max_size=2),
             min_size=2, max_size=2).map(f2_algebra_tables))


def corrupt(data, tables, bound):
    """Overwrite 0-3 cells, each of a drawn table, with a drawn value below ``bound``."""
    for _ in range(data.draw(st.integers(0, 3))):
        table = data.draw(st.sampled_from(tables))
        i = data.draw(st.integers(0, len(table) - 1))
        j = data.draw(st.integers(0, len(table[0]) - 1))
        table[i][j] = data.draw(st.integers(0, bound - 1))


def law(message):
    return message.split(" at ")[0].split(":")[0]


def assert_agrees(build, violations, laws):
    """``build`` fails exactly when there are violations, on the first failing law."""
    try:
        build()
    except AxiomError as exc:
        assert str(exc) in violations
        assert law(str(exc)) == next(x for x in laws if x in map(law, violations))
    else:
        assert not violations


def rejected(check):
    try:
        check()
    except AxiomError:
        return True
    return False


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_ring_check_matches_oracle(data):
    add, mul = data.draw(RING_SOURCES)
    n = len(add)
    p = data.draw(st.permutations(range(n)))
    add, mul = relabel(add, p, p, p), relabel(mul, p, p, p)
    corrupt(data, [add, mul], n)
    if rejected(lambda: additive_group(add, MAX_RING_SIZE, "ring")):
        return  # shape, zero, negatives and commutativity are checked before any law
    assert_agrees(lambda: FiniteRing(add, mul), ring_law_violations(add, mul), RING_LAWS)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_module_check_matches_oracle(data):
    if data.draw(st.booleans()):
        m, n = data.draw(st.sampled_from(MODULES))
        ring_name, (add, action) = f"Z{n}", zm_over_zn_tables(m, n)
    else:
        matrix = st.lists(st.integers(0, 1), min_size=4, max_size=4)
        a1, a0 = data.draw(matrix), data.draw(st.just([0] * 4) | matrix)
        ring_name, (m, n), (add, action) = "Z2xZ2", (4, 4), f2_square_tables(a1, a0)
    q = data.draw(st.permutations(range(n)))
    ring = FiniteRing(*(relabel(t, q, q, q) for t in ring_tables(ring_name)))
    p = data.draw(st.permutations(range(m)))
    add, action = relabel(add, p, p, p), relabel(action, p, q, p)
    corrupt(data, [add, action], m)
    if rejected(lambda: additive_group(add, MAX_MODULE_SIZE, "module")):
        return
    assert_agrees(lambda: FiniteModule(ring, add, action),
                  module_law_violations(ring, add, action), MODULE_LAWS)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_involution_check_matches_oracle(data):
    add, mul, inv = data.draw(INVOLUTION_SOURCES)
    n = len(add)
    p = data.draw(st.permutations(range(n)))
    add, mul, [inv] = relabel(add, p, p, p), relabel(mul, p, p, p), relabel([inv], [0], p, p)
    for _ in range(data.draw(st.integers(0, 3))):
        a, b = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        if data.draw(st.booleans()):
            inv[a], inv[b] = inv[b], inv[a]
        else:
            inv[a] = b
    assert_agrees(lambda: FiniteRing(add, mul, involution=inv),
                  involution_violations(add, mul, inv), INVOLUTION_LAWS)


@cache
def minus_dual(m, n):
    """Z_m/Z_n's context, its minus-dual row masks and the images of its units."""
    ctx = mo.ModuleContext(mo.build_zm_over_zn(m, n), f"Z{m}/Z{n}")
    M, S = ctx.module, ctx.endos
    sides = [("S", g, S.maps[g]) for g in sorted(S.units())]
    sides += [("R", b, [row[b] for row in M.action]) for b in sorted(M.ring.units())]
    return ctx, tuple(mo.relation_matrix(ctx, "minus-dual").rows), sides


def random_order(data, n):
    """The reflexive, transitive closure of random edges that go up a random linear order."""
    rank = data.draw(st.permutations(range(n)))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    rows = [1 << i for i in range(n)]
    for a, b in data.draw(st.lists(pairs, max_size=2 * n)):
        if rank[a] < rank[b]:
            rows[a] |= 1 << b
    for k in range(n):
        for i in range(n):
            if rows[i] >> k & 1:
                rows[i] |= rows[k]
    return rows


def flipped(data, rows):
    rows, n = list(rows), len(rows)
    for _ in range(data.draw(st.integers(0, 3))):
        rows[data.draw(st.integers(0, n - 1))] ^= 1 << data.draw(st.integers(0, n - 1))
    return rows


def grid(rows):
    return [[bool(row >> j & 1) for j in range(len(rows))] for row in rows]


def outcome(report):
    return report.outcome, report.counterexample, report.checks


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_relation_checks_match_cell_scans(data):
    ctx, minus, sides = minus_dual(*data.draw(st.sampled_from(MODULES + [(20, 20), (24, 24)])))
    n, mask = ctx.module.size, st.integers(0, (1 << ctx.module.size) - 1)
    base = minus if data.draw(st.booleans()) else random_order(data, n)
    rows, other = flipped(data, base), flipped(data, base)
    a, b = RelationMatrix(ctx.name, "a", n, rows), RelationMatrix(ctx.name, "b", n, other)

    domain = set(bits(data.draw(mask)))
    assert outcome(mo.check_partial_order(a, domain)) == partial_order_scan(grid(rows), domain)
    dom_rows, cols = data.draw(mask), data.draw(mask)
    pairs = {(i, j) for i in bits(dom_rows) for j in bits(cols)}
    assert outcome(mo.check_equivalence(a, b)) == equivalence_scan(grid(rows), grid(other))
    assert (outcome(mo.check_equivalence(a, b, (dom_rows, cols)))
            == equivalence_scan(grid(rows), grid(other), pairs))
    assert outcome(mo.check_unit_invariance(ctx, a)) == unit_invariance_scan(grid(rows), sides)
    assert mo.transitive_reduction(rows) == transitive_reduction_scan(grid(rows))


def test_unit_invariance_fails_at_a_unit_off_the_first_generator():
    """The units of Z8 form Z2 x Z2: the edges (1, 1) and (3, 3) are fixed by x -> 3x but
    moved by x -> 5x, so the law fails, at the pair the cell scan reports."""
    ctx, _, sides = minus_dual(8, 8)
    rows = [0, 1 << 1, 0, 1 << 3, 0, 0, 0, 0]
    report = mo.check_unit_invariance(ctx, RelationMatrix(ctx.name, "a", 8, rows))
    assert report.outcome == "fail"
    assert outcome(report) == unit_invariance_scan(grid(rows), sides)
