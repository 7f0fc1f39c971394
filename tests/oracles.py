"""Independent brute-force oracles used to cross-check library output.

Everything here works on raw tables and full enumeration; nothing imports
the enumeration or search code under test.
"""

from itertools import product


def brute_homs(dom_add, dom_action, cod_add, cod_action, cod_size):
    """All additive, linear value tables dom -> cod, by filtering every function."""
    msize = len(dom_add)
    rsize = len(dom_action[0]) if msize else 0
    found = []
    for table in product(range(cod_size), repeat=msize):
        ok = True
        for x in range(msize):
            tx = table[x]
            for y in range(msize):
                if table[dom_add[x][y]] != cod_add[tx][table[y]]:
                    ok = False
                    break
            if not ok:
                break
            for r in range(rsize):
                if table[dom_action[x][r]] != cod_action[tx][r]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.append(table)
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


def zn_tables(n):
    add = [[(a + b) % n for b in range(n)] for a in range(n)]
    mul = [[a * b % n for b in range(n)] for a in range(n)]
    return add, mul


def zm_over_zn_tables(m, n):
    add = [[(x + y) % m for y in range(m)] for x in range(m)]
    action = [[x * r % m for r in range(n)] for x in range(m)]
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
