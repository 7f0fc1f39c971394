"""Independent brute-force oracles used to cross-check library output.

Everything here works on raw tables and full enumeration; nothing imports
the enumeration or search code under test.
"""

from functools import reduce
from itertools import product
from operator import or_
from typing import NamedTuple

# Rings whose R_R the tests check against oracles: the Boolean ring Z2^6, two products
# that are not von Neumann regular, and M2(Z2), which is not commutative.
ORACLE_RINGS = ("Z2xZ2xZ2xZ2xZ2xZ2", "Z2xZ2xZ2xZ4", "Z2xZ4xZ8", "M2(Z2)")


def brute_homs(dom_add, dom_action, cod_add, cod_action, cod_size):
    """All additive, linear value tables dom -> cod, by filtering every function.  Values
    are chosen for x = 0, 1, ... in turn, and each law t(x+y) = t(x)+t(y), t(x.r) = t(x).r
    is checked once all the elements it names have values, so a failing prefix is dropped
    with every function that extends it."""
    msize = len(dom_add)
    rsize = len(dom_action[0]) if msize else 0
    laws = [[] for _ in range(msize)]  # the laws whose last-valued element is x
    for x, y in product(range(msize), repeat=2):
        z = dom_add[x][y]
        laws[max(x, y, z)].append((z, lambda t, x=x, y=y: cod_add[t[x]][t[y]]))
    for x, r in product(range(msize), range(rsize)):
        z = dom_action[x][r]
        laws[max(x, z)].append((z, lambda t, x=x, r=r: cod_action[t[x]][r]))
    found, table = [], [0] * msize

    def extend(x):
        if x == msize:
            found.append(tuple(table))
            return
        for v in range(cod_size):
            table[x] = v
            if all(table[z] == value(table) for z, value in laws[x]):
                extend(x + 1)
    extend(0)
    return sorted(found)


def brute_minus_dual(module, functionals, m1, m2):
    """Definitional minus order decided against an explicit functional list."""
    for t in functionals:
        if module.action[m1][t[m1]] != m1:
            continue
        if t[m1] != t[m2]:
            continue
        if all(module.action[m1][t[x]] == module.action[m2][t[x]]
               for x in range(module.size)):
            return True
    return False


def regularity_verdict(minus_dual, ctx, m):
    """Regularity of m as m <= m in ``minus_dual`` (the minus-dual Relation, passed in),
    its row at m read off the regular mask and its witness found by scanning minus-dual's
    columns over all of M*, the verdict renamed "regular"."""
    return minus_dual._replace(tag="regular").verdict(ctx, m, m, ctx.regular)


def is_direct_sum(add, zero, a, b, target):
    """A + B = target with A intersect B = {zero}: an internal direct sum, by definition."""
    return set(a) & set(b) == {zero} and {add[x][y] for x in a for y in b} == set(target)


def brute_dsum_rows(add, action):
    """For each m1, the mask of the m2 with m1R meet (m2 - m1)R = {0} and
    m1R + (m2 - m1)R = m2R, every pair decided from the tables."""
    n = len(add)
    zero = next(e for e in range(n) if all(add[e][x] == x for x in range(n)))
    cyclic = [set(row) for row in action]
    return [sum(1 << m2 for m2 in range(n)
                for d in range(n) if add[m1][d] == m2  # d = m2 - m1
                if is_direct_sum(add, zero, cyclic[m1], cyclic[d], cyclic[m2]))
            for m1 in range(n)]


def _idempotent_parts(action, mul, maps, f_gate, a_gate):
    """For each m1: for each idempotent f of S (an index into ``maps``, the value tables
    of End(M)) the mask of the m2 with f m1 = f m2 if f_gate(m1, f) holds, else 0; and for
    each idempotent a of R the mask of the m2 with m1 a = m2 a if a_gate(m1, a), else 0."""
    n = len(action)
    f_pool = [f for f, t in enumerate(maps) if all(t[t[x]] == t[x] for x in range(n))]
    a_pool = [a for a in range(len(mul)) if mul[a][a] == a]

    def fibre(m1, value):  # the mask of the m2 with value(m2) = value(m1)
        return sum(1 << m2 for m2 in range(n) if value(m2) == value(m1))
    return [({f: fibre(m1, maps[f].__getitem__) if f_gate(m1, f) else 0 for f in f_pool},
             {a: fibre(m1, lambda m: action[m][a]) if a_gate(m1, a) else 0 for a in a_pool})
            for m1 in range(n)]


def image_parts(action, mul, maps):
    """minus-image's parts by their set definitions: m1R <= fM and Sm1 <= Ma."""
    images = [set(t) for t in maps]
    multiples = [{row[a] for row in action} for a in range(len(mul))]
    return _idempotent_parts(action, mul, maps, lambda m1, f: set(action[m1]) <= images[f],
                             lambda m1, a: {t[m1] for t in maps} <= multiples[a])


def relaxed_parts(add, action, mul, maps):
    """minus-relaxed's parts by their set definitions: l_S(f) <= l_S(m1), with l_S(f) the
    g of S with g f = 0, that is, with fM in ker g; and r_R(a) <= r_R(m1)."""
    n = len(action)
    zero = next(e for e in range(n) if all(add[e][x] == x for x in range(n)))
    rzero = next(r for r, row in enumerate(mul) if all(v == r for v in row))  # r.s = r
    kernels = [{x for x in range(n) if g[x] == zero} for g in maps]
    l_f = [{g for g, ker in enumerate(kernels) if set(t) <= ker} for t in maps]
    r_a = [{r for r, v in enumerate(row) if v == rzero} for row in mul]
    l_m = [{g for g, t in enumerate(maps) if t[m] == zero} for m in range(n)]
    r_m = [{r for r, v in enumerate(row) if v == zero} for row in action]
    return _idempotent_parts(action, mul, maps, lambda m1, f: l_f[f] <= l_m[m1],
                             lambda m1, a: r_a[a] <= r_m[m1])


def right_annihilator_parts(mul, zero, pool):
    """ring-annih's q part, and minus-idem's a part on R_R, as each was computed on its own:
    for each q of pool, at each a with r(a) = r(q), the mask of the b with bq = aq, read
    from column q of mul; and for each a, the OR of the columns."""
    n = len(mul)
    right = [frozenset(x for x in range(n) if mul[a][x] == zero) for a in range(n)]
    columns = [[sum(1 << b for b in range(n) if mul[b][q] == mul[a][q]) if right[a] == right[q]
                else 0 for a in range(n)] for q in pool]
    return [reduce(or_, cells) for cells in zip(*columns)], columns


def _rows(parts):
    return [reduce(or_, f_parts.values(), 0) & reduce(or_, a_parts.values(), 0)
            for f_parts, a_parts in parts]


def brute_image_rows(action, mul, maps):
    """For each m1, the mask of the m2 with some idempotent pair (f, a) of S and R such
    that m1R <= fM, Sm1 <= Ma, f m1 = f m2 and m1 a = m2 a."""
    return _rows(image_parts(action, mul, maps))


def brute_relaxed_rows(add, action, mul, maps):
    """For each m1, the mask of the m2 with some idempotent pair (f, a) of S and R such
    that l_S(f) <= l_S(m1), r_R(a) <= r_R(m1), f m1 = f m2 and m1 a = m2 a."""
    return _rows(relaxed_parts(add, action, mul, maps))


def vn_regular_mask(mul):
    """The mask of the a with a*x*a = a for some x, every x tried."""
    n = len(mul)
    return sum(1 << a for a in range(n) if any(mul[mul[a][x]][a] == a for x in range(n)))


def rickart_from_tables(mul, zero, gens):
    """(holds, witnesses, failure) as a Rickart certificate over ``gens`` has them: for each
    a in turn, the first e in gens with eR = r(a) and the first with Re = l(a), until some
    a has none."""
    n, witnesses = len(mul), {}
    for a in range(n):
        right = {x for x in range(n) if mul[a][x] == zero}
        left = {x for x in range(n) if mul[x][a] == zero}
        p = next((e for e in gens if set(mul[e]) == right), None)
        q = next((e for e in gens if {row[e] for row in mul} == left), None)
        if p is None or q is None:
            return False, witnesses, a
        witnesses[a] = (p, q)
    return True, witnesses, None


def units_from_tables(mul, one):
    """The u with uv = 1 = vu for some v, in ascending order, every v tried."""
    n = len(mul)
    return tuple(u for u in range(n) if any(mul[u][v] == one == mul[v][u] for v in range(n)))


def triangular_tables(p):
    """The upper triangular 2x2 matrices ((a, b), (0, d)) over Z_p, at index (a*p + b)*p + d:
    a noncommutative ring."""
    mats = list(product(range(p), repeat=3))  # in index order

    def enc(a, b, d):
        return (a * p + b) * p + d
    add = [[enc((x[0] + y[0]) % p, (x[1] + y[1]) % p, (x[2] + y[2]) % p) for y in mats]
           for x in mats]
    mul = [[enc(x[0] * y[0] % p, (x[0] * y[1] + x[1] * y[2]) % p, x[2] * y[2] % p) for y in mats]
           for x in mats]
    return add, mul


def zn_tables(n):
    add = [[(a + b) % n for b in range(n)] for a in range(n)]
    mul = [[a * b % n for b in range(n)] for a in range(n)]
    return add, mul


def zm_over_zn_tables(m, n):
    add = [[(x + y) % m for y in range(m)] for x in range(m)]
    action = [[x * r % m for r in range(n)] for x in range(m)]
    return add, action


def direct_sum_tables(a, b, n):
    """Z_a (+) Z_b over Z_n, for a and b dividing n: (x, y) at index x*b + y."""
    pairs = [divmod(i, b) for i in range(a * b)]
    add = [[(x + u) % a * b + (y + v) % b for u, v in pairs] for x, y in pairs]
    action = [[x * r % a * b + y * r % b for r in range(n)] for x, y in pairs]
    return add, action


def f2_power_tables(k):
    """F2^k over Z2: xor addition, action by 0/1."""
    n = 2 ** k
    add = [[x ^ y for y in range(n)] for x in range(n)]
    action = [[0, x] for x in range(n)]
    return add, action


def klein_four_tables():
    """F2 x F2 over Z2: xor addition, action by 0/1."""
    return f2_power_tables(2)


def f2_power_spec(k):
    """F2^k over Z2 in the module definition-file form."""
    add, action = f2_power_tables(k)
    return {"kind": "tables", "name": f"F2^{k}", "ring": {"kind": "Zn", "n": 2},
            "add": add, "action": action}


def is_submodule(module, members):
    """Whether a set of elements holds zero and is closed under + and the action."""
    return (module.zero in members
            and all(module.add[x][y] in members for x in members for y in members)
            and all(v in members for x in members for v in module.action[x]))


def ring_law_violations(add, mul):
    """Every failing ring law as the message the library gives for it, by checking
    every triple: no identity, associativity of + and *, both distributive laws.
    The laws hold exactly when the set is empty."""
    n = len(add)
    rng = range(n)
    found = set()
    if not any(all(mul[e][x] == x == mul[x][e] for x in rng) for e in rng):
        found.add("no multiplicative identity")
    for a, b, c in product(rng, repeat=3):
        at = f" at (a,b,c)=({a},{b},{c})"
        if add[add[a][b]][c] != add[a][add[b][c]]:
            found.add("addition not associative" + at)
        if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
            found.add("multiplication not associative" + at)
        if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
            found.add("left distributivity fails" + at)
        if mul[add[b][c]][a] != add[mul[b][a]][mul[c][a]]:
            found.add("right distributivity fails" + at)
    return found


def module_law_violations(ring, add, action):
    """Every failing module law as the message the library gives for it, by checking
    every triple: associativity of +, m1 = m, (m+n)r, m(r+s) and m(rs).  The laws
    hold exactly when the set is empty."""
    rng, rr = range(len(add)), range(ring.size)
    found = {f"unitality fails: {x}.1 = {action[x][ring.one]}"
             for x in rng if action[x][ring.one] != x}
    for a, b, c in product(rng, repeat=3):
        if add[add[a][b]][c] != add[a][add[b][c]]:
            found.add(f"module addition not associative at (a,b,c)=({a},{b},{c})")
    for m, n, r in product(rng, rng, rr):
        if action[add[m][n]][r] != add[action[m][r]][action[n][r]]:
            found.add(f"(m+n)r law fails at (m,n,r)=({m},{n},{r})")
    for m, r, s in product(rng, rr, rr):
        if action[m][ring.add[r][s]] != add[action[m][r]][action[m][s]]:
            found.add(f"m(r+s) law fails at (m,r,s)=({m},{r},{s})")
        if action[m][ring.mul[r][s]] != action[action[m][r]][s]:
            found.add(f"m(rs) law fails at (m,r,s)=({m},{r},{s})")
    return found


def involution_violations(add, mul, inv):
    """Every failing involution law as the message the library gives for it, by checking
    every element and every pair: (a*)* = a, (a+b)* = a* + b* and (ab)* = b*a*.  The laws
    hold exactly when the set is empty."""
    rng = range(len(add))
    found = {f"involution not self-inverse at {a}" for a in rng if inv[inv[a]] != a}
    for a, b in product(rng, repeat=2):
        if inv[add[a][b]] != add[inv[a]][inv[b]]:
            found.add(f"involution not additive at (a,b)=({a},{b})")
        if inv[mul[a][b]] != mul[inv[b]][inv[a]]:
            found.add(f"involution not anti-multiplicative at (a,b)=({a},{b})")
    return found


# -- relation law checks, cell by cell on an n x n grid of bools --------------------
# Each returns what the library's check reports: (outcome, counterexample, checks).


def partial_order_scan(cells, domain):
    """Reflexivity on ``domain``, then antisymmetry and transitivity on every cell."""
    n = len(cells)
    checks = 0
    for m in sorted(domain):
        checks += 1
        if not cells[m][m]:
            return "fail", {"axiom": "reflexivity", "element": m}, checks
    for i in range(n):
        for j in range(n):
            checks += 1
            if i != j and cells[i][j] and cells[j][i]:
                return "fail", {"axiom": "antisymmetry", "pair": [i, j]}, checks
    for i in range(n):
        for j in range(n):
            if not cells[i][j]:
                continue
            for k in range(n):
                checks += 1
                if cells[j][k] and not cells[i][k]:
                    return "fail", {"axiom": "transitivity", "triple": [i, j, k]}, checks
    return "pass", None, checks


def equivalence_scan(cells_a, cells_b, pairs=None):
    """Cell equality of relations named "a" and "b", on ``pairs`` (None: every cell)."""
    n = len(cells_a)
    checks = 0
    for i in range(n):
        for j in range(n):
            if pairs is not None and (i, j) not in pairs:
                continue
            checks += 1
            if cells_a[i][j] != cells_b[i][j]:
                return "fail", {"pair": [i, j], "a": cells_a[i][j], "b": cells_b[i][j]}, checks
    return "pass", None, checks


def unit_invariance_scan(cells, sides):
    """cells[i][j] == cells[image[i]][image[j]] for each (side, unit, image) in turn."""
    n = len(cells)
    checks = 0
    for side, unit, image in sides:
        for i in range(n):
            for j in range(n):
                checks += 1
                if cells[i][j] != cells[image[i]][image[j]]:
                    return "fail", {"side": side, "unit": unit, "pair": [i, j]}, checks
    return "pass", None, checks


def transitive_reduction_scan(cells):
    """The related pairs (i, j), i != j, with no k other than i and j between them."""
    n = len(cells)
    return [(i, j) for i in range(n) for j in range(n)
            if i != j and cells[i][j]
            and not any(k != i and k != j and cells[i][k] and cells[k][j] for k in range(n))]


def witness_chain_scan(maps, action, parts, rows, checks):
    """The equality chain m1 = f m1 = f m2 = m1 a = m2 a of the witness-constructions law,
    cell by cell at the first witness (f, a) of each related pair, from ``parts`` as
    ``definitional_parts`` gives them; ``checks`` counts on from the regularity witnesses.
    Returns (outcome, counterexample, checks)."""
    for m1, (row, firsts) in enumerate(zip(rows, definitional_firsts(parts, rows))):
        for m2, (f, a) in firsts.items():
            checks += 1
            t = maps[f]
            chain = (t[m1] == m1 and t[m2] == m1
                     and action[m1][a] == m1 and action[m2][a] == m1)
            if not chain:
                ce = {"kind": "equality-chain", "pair": [m1, m2], "f": f, "a": a}
                return "fail", ce, checks
    return "pass", None, checks


# -- every relation by its set definition ------------------------------------------------


class Tables(NamedTuple):
    """A module's tables and its ring's, End(M)'s value tables and M*'s in their orders,
    and the involutions of R and of End(M) (None: absent)."""

    add: list
    action: list
    mul: list
    maps: list
    functionals: list
    r_inv: list | None
    s_inv: list | None


def module_tables(ctx) -> Tables:
    M = ctx.module
    return Tables(M.add, M.action, M.ring.mul, list(ctx.endos.maps), list(ctx.dual),
                  M.ring.involution, ctx.endos.involution)


def _identity(table):
    return next(e for e in range(len(table)) if all(table[e][x] == x for x in range(len(table))))


def _module_clauses(tag, t):
    """Each pool of the module relation ``tag`` in ascending order, with its clause
    (m1, m2, p) -> bool, by the definition; None where an involution it needs is absent."""
    add, action, mul, maps = t.add, t.action, t.mul, t.maps
    elements, zero = range(len(add)), _identity(add)
    rzero = next(r for r, row in enumerate(mul) if all(v == r for v in row))  # r.s = r
    every_s, every_r = list(range(len(maps))), list(range(len(mul)))
    idem_s = [f for f, tf in enumerate(maps) if all(tf[tf[x]] == tf[x] for x in elements)]
    idem_r = [a for a in every_r if mul[a][a] == a]
    l_f = [{g for g, tg in enumerate(maps) if all(tg[v] == zero for v in tf)} for tf in maps]
    l_m = [{g for g, tg in enumerate(maps) if tg[m] == zero} for m in elements]
    r_a = [{r for r in every_r if mul[a][r] == rzero} for a in every_r]
    r_m = [{r for r in every_r if action[m][r] == zero} for m in elements]

    def f_eq(m1, m2, f):
        return maps[f][m1] == maps[f][m2]

    def a_eq(m1, m2, a):
        return action[m1][a] == action[m2][a]
    annihilator = ((lambda m1, m2, f: l_f[f] == l_m[m1] and f_eq(m1, m2, f)),
                   (lambda m1, m2, a: r_a[a] == r_m[m1] and a_eq(m1, m2, a)))
    if tag in ("minus-idem", "rstar", "lstar", "star"):
        f_proj, a_proj = tag in ("lstar", "star"), tag in ("rstar", "star")
        if (f_proj and t.s_inv is None) or (a_proj and t.r_inv is None):
            return None
        return ([f for f in idem_s if not f_proj or t.s_inv[f] == f],
                [a for a in idem_r if not a_proj or t.r_inv[a] == a]), annihilator
    if tag == "minus-relaxed":
        return (idem_s, idem_r), ((lambda m1, m2, f: l_f[f] <= l_m[m1] and f_eq(m1, m2, f)),
                                  (lambda m1, m2, a: r_a[a] <= r_m[m1] and a_eq(m1, m2, a)))
    if tag == "minus-image":
        images, multiples = [set(tf) for tf in maps], [{row[a] for row in action} for a in every_r]
        orbits, cyclic = [{tg[m] for tg in maps} for m in elements], [set(row) for row in action]
        return (idem_s, idem_r), (
            (lambda m1, m2, f: cyclic[m1] <= images[f] and f_eq(m1, m2, f)),
            (lambda m1, m2, a: orbits[m1] <= multiples[a] and a_eq(m1, m2, a)))
    if tag == "minus-dual":
        agree = {tf: [tuple(action[m][v] for v in sorted(set(tf))) for m in elements]
                 for tf in t.functionals}  # m1 tM = m2 tM pointwise
        return (t.functionals,), ((lambda m1, m2, tf: action[m1][tf[m1]] == m1
                                   and tf[m1] == tf[m2] and agree[tf][m1] == agree[tf][m2]),)
    if tag == "dsum":
        cyclic = [tuple(sorted(set(row))) for row in action]
        classes = list(dict.fromkeys(cyclic))
        return (classes, classes), (
            (lambda m1, m2, a_set: a_set == cyclic[m1]),
            (lambda m1, m2, b_set: b_set == cyclic[add[m1].index(m2)]  # (m2 - m1) R
             and is_direct_sum(add, zero, cyclic[m1], b_set, cyclic[m2])))
    f_fixing = lambda m1, m2, f: maps[f][m1] == m1 == maps[f][m2]  # noqa: E731
    a_fixing = lambda m1, m2, a: action[m1][a] == m1 == action[m2][a]  # noqa: E731
    f_onto = lambda m1, m2, f: maps[f][m2] == m1  # noqa: E731
    a_onto = lambda m1, m2, a: action[m2][a] == m1  # noqa: E731
    return {"jones": ((idem_s, idem_r), (f_onto, a_onto)),
            "mitsch": ((every_s, every_r), (f_fixing, a_onto)),
            "mitsch-sym": ((every_s, every_r), (f_fixing, a_fixing)),
            "gb": ((every_s, every_r), (f_onto, a_fixing))}[tag]


def _ring_clauses(tag, add, mul):
    """The pools and clauses of the ring relation ``tag`` over the ring (add, mul)."""
    elements, zero, one = range(len(mul)), _identity(add), _identity(mul)
    if tag == "hartwig":  # x an inner inverse of a, with xa = xb and ax = bx
        return (list(elements),), ((lambda a, b, x: mul[mul[a][x]][a] == a
                                     and mul[x][a] == mul[x][b] and mul[a][x] == mul[b][x]),)
    idem = [p for p in elements if mul[p][p] == p]
    comp = [next(c for c in elements if add[c][p] == one) for p in elements]  # 1 - p
    left = [{x for x in elements if mul[x][a] == zero} for a in elements]
    right = [{x for x in elements if mul[a][x] == zero} for a in elements]
    return (idem, idem), (
        (lambda a, b, p: left[a] == {mul[r][comp[p]] for r in elements}
         and mul[p][a] == mul[p][b]),
        (lambda a, b, q: right[a] == {mul[comp[q]][r] for r in elements}
         and mul[a][q] == mul[b][q]))


def definitional_parts(tag, tables=None, ring=None):
    """For each x, for each pool of the relation ``tag`` in ascending order, {p: the mask of
    the y at which p's clause holds at (x, y)}, by the definition: over a module's Tables,
    or over a ring's (add, mul) for hartwig and ring-annih; None where not applicable."""
    if ring is not None:
        pools_clauses, n = _ring_clauses(tag, *ring), len(ring[0])
    else:
        pools_clauses, n = _module_clauses(tag, tables), len(tables.add)
    if pools_clauses is None:
        return None
    pools, clauses = pools_clauses
    return [[{p: sum(1 << y for y in range(n) if clause(x, y, p)) for p in pool}
             for pool, clause in zip(pools, clauses)] for x in range(n)]


def definitional_rows(parts):
    """Each x's mask of the y at which every pool has a p whose clause holds."""
    return [reduce(lambda acc, masks: acc & reduce(or_, masks.values(), 0), row, -1)
            for row in parts]


def definitional_firsts(parts, rows):
    """For each x, {y: the first p of each pool whose clause holds at (x, y)}, y in row x."""
    return [{y: tuple(next(p for p, mask in masks.items() if mask >> y & 1) for masks in pools)
             for y in range(len(rows)) if rows[x] >> y & 1} for x, pools in enumerate(parts)]


def relabel(table, rows, cols, values):
    """The table with row i moved to rows[i], column j to cols[j], entry v to values[v]."""
    out = [[0] * len(cols) for _ in rows]
    for i, row in enumerate(table):
        for j, v in enumerate(row):
            out[rows[i]][cols[j]] = values[v]
    return out
