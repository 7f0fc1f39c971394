import functools
import gc
import itertools
import random
import time
import weakref
from operator import attrgetter

import pytest
from hypothesis import given, settings, strategies as st

import modorder as mo
from modorder import rings
from modorder.rings import AxiomError, SpecError

from oracles import (klein_four_tables, rickart_from_tables, triangular_tables, units_from_tables,
                     vn_regular_mask, zm_over_zn_tables, zn_tables)


# -- constructors ---------------------------------------------------------------


def test_zero_ring():
    r = mo.build_zn(1)
    assert r.size == 1 and r.zero == r.one == 0
    assert r.idempotents() == {0}
    assert r.units() == {0}


def test_zn_basics():
    r = mo.build_zn(30)
    assert r.size == 30
    assert r.add[1][29] == 0
    assert r.idempotents() == {0, 1, 6, 10, 15, 16, 21, 25}


def test_zn_rejects_zero():
    with pytest.raises(SpecError):
        mo.build_zn(0)


def test_z10_structure():
    r = mo.build_zn(10)
    assert r.idempotents() == {0, 1, 5, 6}
    assert r.units() == {1, 3, 7, 9}
    assert r.projections() == {0, 1, 5, 6}  # identity involution


def test_product_is_z6_by_crt():
    p = mo.build_product(mo.build_zn(2), mo.build_zn(3))
    assert p.size == 6
    # x -> (x mod 2, x mod 3), pairs encoded at i1*3 + i2
    crt = [(x % 2) * 3 + (x % 3) for x in range(6)]
    z6 = mo.build_zn(6)
    for i in range(6):
        for j in range(6):
            assert p.add[crt[i]][crt[j]] == crt[z6.add[i][j]]
            assert p.mul[crt[i]][crt[j]] == crt[z6.mul[i][j]]


def test_product_with_trivial_factor():
    r = mo.build_zn(5)
    p = mo.build_product(mo.build_zn(1), r)
    assert p.size == r.size
    assert p.mul == r.mul and p.add == r.add


def test_z2xz2_all_idempotent():
    p = mo.build_product(mo.build_zn(2), mo.build_zn(2))
    assert p.idempotents() == {0, 1, 2, 3}


def test_matrix_ring_m2z2():
    r = mo.build_matrix_ring(2)
    assert r.size == 16
    assert not r.is_commutative()
    assert len(r.idempotents()) == 8
    assert len(r.units()) == 6
    assert len(r.projections()) == 4


def test_matrix_ring_m2z3_is_proper_star():
    r = mo.build_matrix_ring(3)
    assert r.size == 81
    assert mo.is_proper_star(r)
    projs = r.projections()
    assert len(projs) == 6
    assert all(r.involution[e] == e and r.mul[e][e] == e for e in projs)


def test_matrix_ring_m2z2_not_proper():
    r = mo.build_matrix_ring(2)
    assert not mo.is_proper_star(r)
    # the all-ones matrix is the witness: index of ((1,1),(1,1)) is 15
    ones = 15
    assert r.mul[ones][r.involution[ones]] == r.zero


def test_matrix_ring_rejects_bad_args():
    with pytest.raises(SpecError):
        mo.build_matrix_ring(4)


def test_matrix_ring_full_axiom_check():
    # size 81: derived unchecked, so every ring law runs here, on request
    mo.build_matrix_ring(3).validate()


def test_from_tables_valid():
    add, mul = zn_tables(4)
    r = mo.build_ring_from_tables(add, mul)
    assert r.size == 4 and r.one == 1


def test_from_tables_broken_associativity():
    add, mul = zn_tables(4)
    mul[2][3] = 1  # corrupt one product; a cubic law must fail, naming its triple
    with pytest.raises(AxiomError, match=r"\(a,b,c\)=\(\d+,\d+,\d+\)"):
        mo.build_ring_from_tables(add, mul)


def test_rings_of_every_size_checked():
    add, mul = zn_tables(128)
    mul[2][3] = mul[3][2] = 1  # still commutative, with 1 as identity
    with pytest.raises(AxiomError, match=r"\(a,b,c\)=\(\d+,\d+,\d+\)"):
        mo.build_ring_from_tables(add, mul)
    assert mo.build_matrix_ring(3).size == 81 and mo.build_zn(256).size == 256


def test_addition_refused_at_its_one_asymmetric_cell():
    """One asymmetric cell off the zero row and column, in either triangle, is refused
    naming the pair (a, b) with b < a, as a scan below the diagonal finds it."""
    rng, n = random.Random(0), 12
    for _ in range(25):
        a, b = rng.sample(range(1, n), 2)
        if (a + b) % n == 0:  # keep every inverse in its row
            continue
        add, mul = zn_tables(n)
        add[a][b] = (add[a][b] + 1) % n
        with pytest.raises(AxiomError) as exc:
            mo.build_ring_from_tables(add, mul)
        assert str(exc.value) == (f"ring addition not commutative at "
                                  f"(a,b)=({max(a, b)},{min(a, b)})")


def test_missing_identities_refused():
    add, mul = zn_tables(4)
    with pytest.raises(AxiomError, match="no additive identity"):
        mo.build_ring_from_tables([[0] * 4 for _ in range(4)], mul)
    with pytest.raises(AxiomError, match="no multiplicative identity"):
        mo.build_ring_from_tables(add, [[0] * 4 for _ in range(4)])


def test_from_tables_mismatched_sizes():
    add, mul = zn_tables(4)
    with pytest.raises(AxiomError, match="table"):
        mo.build_ring_from_tables(add, mul[:3])


def test_from_tables_bad_involution():
    add, mul = zn_tables(4)
    with pytest.raises(AxiomError, match="involution"):
        mo.build_ring_from_tables(add, mul, involution=[0, 2, 1, 3])


@pytest.mark.parametrize("bad", [True, 1.0, -1, 3, [1], {}])
def test_checked_table_names_first_bad_cell(bad):
    """The whole-table check falls back to a scan that names the first bad cell, also
    one that is unhashable."""
    from modorder.rings import checked_table
    with pytest.raises(AxiomError) as exc:
        checked_table([[0, 1, 2], [1, bad, 7]], 2, 3, 3, "t")
    assert str(exc.value) == f"t[1][1] = {bad!r} is not in 0..2"


def test_ring_size_cap():
    with pytest.raises(AxiomError, match="cap"):
        mo.build_zn(257)


def test_size_cap_checked_before_tables():
    z20 = mo.build_zn(20)
    start = time.perf_counter()
    for build in (lambda: mo.build_zn(100000), lambda: mo.build_product(z20, z20),
                  lambda: mo.build_zm_over_zn(2, 100000)):
        with pytest.raises(AxiomError, match="cap"):
            build()
    assert time.perf_counter() - start < 0.05  # building the tables would take far longer


@pytest.mark.parametrize("p", [2 ** 61 - 1, 10 ** 400])
def test_matrix_spec_cap_checked_before_primality(p):
    """2^61 - 1 is prime, and trial division up to its square root would not finish;
    10^400 has no float square root."""
    with pytest.raises(SpecError, match="beyond cap 256"):
        mo.ring_from_spec({"kind": "matrix2", "p": p})


@pytest.mark.parametrize("build,message", [
    (lambda: mo.build_zn(10 ** 5000), "ring size <5001 digits> exceeds cap 256"),
    (lambda: mo.build_zn(10 ** 1000), "ring size <1001 digits> exceeds cap 256"),
    (lambda: mo.build_matrix_ring(10 ** 1100),
     "M2(Z<1101 digits>) has <4401 digits> elements, beyond cap 256"),
    (lambda: mo.ring_from_spec({"kind": "tables", "size": 10 ** 1000, "add": [[0]],
                                "mul": [[0]]}),
     "tables spec field 'size' is <1001 digits>, not 1 rows"),
])
def test_oversized_numbers_are_counted_not_echoed(build, message):
    """str() refuses an int past 4300 digits, and a shorter huge one would flood the line."""
    with pytest.raises((AxiomError, SpecError)) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize("digits", [1001, 5001])
def test_oversized_table_entry_is_an_axiom_error(digits):
    """A table entry too long for str() (past 4300 digits) or for a line is counted."""
    with pytest.raises(AxiomError) as exc:
        mo.build_ring_from_tables([[0, 1], [1, 0]], [[0, 0], [0, 10 ** (digits - 1)]])
    assert str(exc.value) == f"mul[1][1] = <{digits} digits> is not in 0..1"


def test_shown_counts_digits_exactly():
    from modorder.rings import shown
    assert shown(10 ** 20 - 1) == "9" * 20 and shown(-7) == "-7"
    for k in (21, 22, 299, 1000, 4300, 9000):  # the float log10 rounds near 10^k
        for n, digits in ((10 ** k - 1, k), (10 ** k, k + 1), (-(10 ** k), k + 1)):
            assert shown(n) == f"<{digits} digits>", (k, n == 10 ** k)


def test_ring_from_spec_roundtrip():
    r = mo.ring_from_spec({"kind": "product",
                           "factors": [{"kind": "Zn", "n": 2}, {"kind": "Zn", "n": 3}]})
    assert r.size == 6
    assert mo.ring_from_spec({"kind": "matrix2", "p": 2}).size == 16
    with pytest.raises(SpecError):
        mo.ring_from_spec({"kind": "nope"})
    with pytest.raises(SpecError):
        mo.ring_from_spec({"kind": "tables", "size": 2})


def test_builders_match_definitional_tables():
    """The tables built from row slices are the definitions, cell for cell: Z_n, Z_m over
    Z_n, and products, with the involution of a noncommutative factor."""
    for n in range(1, 41):
        r = mo.build_zn(n)
        assert [r.add, r.mul] == list(zn_tables(n)), n
        for m in range(1, n + 1):
            if n % m == 0:
                module = mo.build_zm_over_zn(m, n)
                assert [module.add, module.action] == list(zm_over_zn_tables(m, n)), (m, n)
    for r1, r2 in [(mo.build_zn(3), mo.build_zn(4)), (mo.build_zn(6), mo.build_zn(1)),
                   (mo.build_matrix_ring(2), mo.build_zn(3)),
                   (mo.build_zn(2), mo.build_matrix_ring(2))]:
        p, n2 = mo.build_product(r1, r2), r2.size
        pairs = [divmod(i, n2) for i in range(p.size)]
        for table, t1, t2 in [(p.add, r1.add, r2.add), (p.mul, r1.mul, r2.mul)]:
            assert table == [[t1[a][c] * n2 + t2[b][d] for c, d in pairs] for a, b in pairs]
        assert p.involution == [r1.involution[a] * n2 + r2.involution[b] for a, b in pairs]


# -- ring-wide invariants -------------------------------------------------------


@settings(max_examples=24, deadline=None)
@given(st.integers(min_value=1, max_value=24))
def test_zn_invariants(n):
    r = mo.build_zn(n)
    r.validate()
    idems = r.idempotents()
    assert {r.zero, r.one} <= idems
    assert all(r.sub(r.one, e) in idems for e in idems)          # closed under 1-e
    assert r.involution[r.zero] == r.zero and r.involution[r.one] == r.one
    assert all(mo.idempotent_annih_identity(r, e) for e in idems)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8))
def test_product_ring_invariants(n1, n2):
    p = mo.build_product(mo.build_zn(n1), mo.build_zn(n2))
    p.validate()
    z1, z2 = mo.build_zn(n1), mo.build_zn(n2)
    assert len(p.idempotents()) == len(z1.idempotents()) * len(z2.idempotents())
    assert len(p.units()) == len(z1.units()) * len(z2.units())


@pytest.mark.parametrize("factors", [("Z3", "Z7"), ("Z2", "M2(Z2)"), ("M2(Z2)", "Z2"),
                                     ("Z2", "Z3", "Z4"), ("Z2", "Z4", "Z8"),
                                     ("Z2", "Z2", "Z2", "Z4")])
def test_product_tables_are_componentwise(factors):
    """+ and * of a product, factors folded from the left, are componentwise on the indices
    t[x1.n2 + x2][y1.n2 + y2] = t1[x1][y1].n2 + t2[x2][y2], checked on every cell against
    the mixed-radix index of the factors' results."""
    rings = [mo.build_matrix_ring(2) if f == "M2(Z2)" else mo.build_zn(int(f[1:]))
             for f in factors]
    R = functools.reduce(mo.build_product, rings)
    cells = list(itertools.product(*(range(r.size) for r in rings)))

    def index(xs):
        return functools.reduce(lambda i, rx: i * rx[0].size + rx[1], zip(rings, xs), 0)
    assert R.size == len(cells) and [index(xs) for xs in cells] == list(range(R.size))
    assert R.name == "x".join(r.name for r in rings)
    for op in ("add", "mul"):
        table = getattr(R, op)
        assert table == [[index([getattr(r, op)[x][y] for r, x, y in zip(rings, xs, ys)])
                          for ys in cells] for xs in cells], op


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=1, max_value=20))
def test_hartwig_reflexive_on_regular_elements(n):
    r = mo.build_zn(n)
    for a in range(n):
        has_inner = mo.vn_regular_witness(r, a) is not None
        assert mo.hartwig_minus_le(r, a, a).holds == has_inner


@pytest.mark.parametrize("build", [
    lambda: mo.build_zn(10),
    lambda: mo.build_matrix_ring(2),
    lambda: mo.build_product(mo.build_zn(2), mo.build_zn(2)),
])
def test_idempotent_identity_everywhere(build):
    r = build()
    for e in sorted(r.idempotents()):
        assert mo.idempotent_annih_identity(r, e)


def test_idempotent_identity_rejects_non_idempotent():
    r = mo.build_zn(10)
    with pytest.raises(ValueError):
        mo.idempotent_annih_identity(r, 2)


@pytest.mark.parametrize("p", [-1, 6])
def test_idempotent_identity_rejects_out_of_range_element(p):
    """-1 is not read as the last element, and |R| gives no IndexError: both name p."""
    with pytest.raises(ValueError, match=f"^element {p} out of range for Z6$"):
        mo.idempotent_annih_identity(mo.build_zn(6), p)


def test_z10_annihilator_values():
    r = mo.build_zn(10)
    assert r.left_anns[2] == {0, 5}
    assert r.left_anns[0] == frozenset(range(10))
    assert r.left_anns[1] == {0}
    # R(1-5) = R*6 = l(5)
    assert r.left_ideals[r.sub(1, 5)] == {0, 2, 4, 6, 8} == r.left_anns[5]


def test_element_families_on_m2z2():
    """Each family matches its definition on a noncommutative ring, where a swap of
    rows and columns would show."""
    r = mo.build_matrix_ring(2)
    els, mul = range(r.size), r.mul
    for a in els:
        assert r.left_anns[a] == {x for x in els if mul[x][a] == r.zero}
        assert r.right_anns[a] == {x for x in els if mul[a][x] == r.zero}
        assert r.left_ideals[a] == {mul[x][a] for x in els}
        assert r.right_ideals[a] == {mul[a][x] for x in els}
    e11 = 8  # ((1,0),(0,0))
    assert r.left_anns[e11] == {0, 1, 4, 5}      # first column zero
    assert r.right_anns[e11] == {0, 1, 2, 3}     # first row zero
    assert r.left_ideals[e11] == {0, 2, 8, 10}   # second column zero
    assert r.right_ideals[e11] == {0, 4, 8, 12}  # second row zero


def _opposite_rings(products_strata):
    """The certificate rings, M2(Z2), tables rings with and without an involution, T2(Z3),
    and End(F2^2), noncommutative and built from its homs."""
    m2, add, action = mo.build_matrix_ring(2), *klein_four_tables()
    klein = mo.build_module_from_tables(mo.build_zn(2), add, action, name="F2^2")
    return [*_certificate_rings(products_strata), m2,
            mo.build_ring_from_tables(m2.add, m2.mul, involution=m2.involution, name="M2-tables"),
            mo.build_ring_from_tables(*zn_tables(6), name="Z6-tables"),
            mo.build_ring_from_tables(*triangular_tables(3), name="T2(Z3)"),
            mo.ModuleContext(klein).endos]


def test_opposite_ring_is_the_transposed_ring(products_strata):
    """R^op is R itself exactly when R is commutative, and vars(R) holds no "opposite".
    Otherwise it is kept, a checked ring on the transposed mul with R's add, zero, one, neg
    and involution, and (R^op)^op is a fresh ring with R's tables."""
    rings_, tables = _opposite_rings(products_strata), attrgetter(
        "add", "mul", "zero", "one", "neg", "involution")
    assert {R.is_commutative() for R in rings_} == {True, False}
    for R in rings_:
        op = R.opposite
        assert (op is R) == R.is_commutative() and "opposite" not in vars(R), R.name
        if op is R:
            continue
        assert op is R.opposite and op.name == f"{R.name}^op" and not op.is_commutative()
        assert tables(op) == (R.add, [list(col) for col in zip(*R.mul)], *tables(R)[2:])
        op.validate()
        assert op.opposite is not R and tables(op.opposite) == tables(R), R.name


def test_opposite_ring_has_no_link_back():
    """R keeps R^op, and R^op keeps (R^op)^op, but neither refers back: with the cycle
    collector off, dropping R frees it."""
    gc.disable()
    try:
        for build in (lambda: mo.build_matrix_ring(2),
                      lambda: mo.build_ring_from_tables(*triangular_tables(2))):
            R = build()
            R.left_anns, R.column_preimages, R.opposite.opposite.right_anns
            ring, op = weakref.ref(R), weakref.ref(R.opposite)
            del R
            assert ring() is None and op() is None
    finally:
        gc.enable()


# -- Rickart and proper-star predicates -------------------------------------------


def test_rickart_z10():
    cert = mo.is_rickart(mo.build_zn(10))
    assert cert.holds
    p, q = cert.witnesses[2]
    r = mo.build_zn(10)
    assert r.right_ideals[p] == r.right_anns[2] == {0, 5}
    assert p == 5  # first idempotent generating {0,5}


def test_rickart_z4_fails():
    cert = mo.is_rickart(mo.build_zn(4))
    assert not cert.holds
    assert cert.failure == 2


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_rickart_prime_fields(p):
    assert mo.is_rickart(mo.build_zn(p)).holds


def test_rickart_star():
    assert mo.is_rickart_star(mo.build_zn(10)).holds
    assert not mo.is_rickart_star(mo.build_zn(4)).holds
    assert mo.is_rickart_star(mo.build_matrix_ring(3)).holds
    assert not mo.is_rickart_star(mo.build_matrix_ring(2)).holds


def _fact_rings(corpus, oracle_contexts):
    """The rings of the corpus members and of ORACLE_RINGS, with the corpus members'
    endomorphism rings."""
    contexts = (*corpus.values(), *oracle_contexts.values())
    return [*{id(r): r for ctx in contexts for r in (ctx.module.ring, ctx.endos)}.values()]


def test_hartwig_diagonal_matches_witnesses_and_brute_force(corpus, oracle_contexts):
    """The a with a <= a in Hartwig's order, as a row of ``hartwig`` reads them, are the a
    with an inner inverse, as vn_regular_witness finds one and as a scan of every x
    does."""
    for r in _fact_rings(corpus, oracle_contexts):
        diagonal = sum(row & 1 << a for a, row in enumerate(mo.hartwig_minus_le.rows(r)))
        witnessed = sum(1 << a for a in range(r.size) if mo.vn_regular_witness(r, a) is not None)
        assert diagonal == witnessed == vn_regular_mask(r.mul), r.name


def test_ring_bridge_gate_is_module_regularity(corpus, oracle_contexts, products_strata):
    """The ring-bridge law is gated on R_R being a regular module: every phi in M* is
    x -> phi(1)x, so m = m.phi(m) iff m = m.phi(1).m, and R_R is regular iff every a has
    a <= a in Hartwig's order, i.e. iff R is von Neumann regular."""
    rr = [ctx for ctx in (*corpus.values(), *oracle_contexts.values())
          if ctx.module.is_ring_as_module()]
    seen = set()
    for ctx in (*rr, *products_strata):
        R = ctx.module.ring
        diagonal = all(row >> a & 1 for a, row in enumerate(mo.hartwig_minus_le.rows(R)))
        assert (ctx.regular == (1 << ctx.module.size) - 1) == diagonal, ctx.name
        seen.add(diagonal)
    assert seen == {True, False}


def test_rickart_star_builds_ideals_at_its_pool_only():
    """The certificates count zeros: Z60's and Z61's right_ideals, right_anns and left_anns
    stay unbuilt, whether the certificate holds or fails."""
    for n, holds in ((60, False), (61, True)):
        ring = mo.build_zn(n)
        assert ring.rickart_star.holds is holds and mo.is_rickart(ring).holds is holds
        assert {"right_ideals", "right_anns", "left_anns"}.isdisjoint(vars(ring)), n


def _certificate_rings(products_strata):
    """Every Z_n with n <= 64, the rings of the suite-products strata, M2(Z2) and M2(Z3)
    under the transpose, and T2(Z2), upper triangular and noncommutative, with no involution."""
    t2 = mo.build_ring_from_tables(*triangular_tables(2), name="T2(Z2)")
    assert not t2.is_commutative() and t2.involution is None
    return [*map(mo.build_zn, range(1, 65)), *(ctx.module.ring for ctx in products_strata),
            mo.build_matrix_ring(3), t2]


def test_pools_match_their_definitions(products_strata):
    """Units, the u with 1 in row u, are the two-sided invertibles; idempotents and
    projections are read off the diagonal and the involution; each set is its pool's."""
    for r in _certificate_rings(products_strata):
        els = range(r.size)
        assert r.unit_pool == units_from_tables(r.mul, r.one), r.name
        assert r.idempotent_pool == tuple(e for e in els if r.mul[e][e] == e), r.name
        assert r.units() == set(r.unit_pool) and r.idempotents() == set(r.idempotent_pool)
        if r.involution is not None:
            assert r.projection_pool == tuple(e for e in r.idempotent_pool
                                              if r.involution[e] == e), r.name
            assert r.projections() == set(r.projection_pool)
        else:
            with pytest.raises(ValueError, match="no involution"):
                r.projections()


def test_rickart_certificates_are_rebuilt_alike(corpus, oracle_contexts, products_strata):
    """is_rickart and is_rickart_star, found by counting zeros (eR = r(a) iff ae = 0 and
    |eR| = |r(a)|), give the certificate rebuilt from the ideals as sets, witnesses and
    failure alike; both outcomes occur on both pools.  is_rickart_star, which every star law
    reads, gives the same object on every call."""
    outcomes = set()
    for r in [*_fact_rings(corpus, oracle_contexts), *_certificate_rings(products_strata)]:
        cert = mo.is_rickart(r)
        assert tuple(cert) == rickart_from_tables(r.mul, r.zero, r.idempotent_pool), r.name
        outcomes.add(("idempotent", cert.holds))
        if r.involution is not None:
            cert = mo.is_rickart_star(r)
            assert tuple(cert) == rickart_from_tables(r.mul, r.zero, r.projection_pool), r.name
            assert mo.is_rickart_star(r) is cert
            outcomes.add(("projection", cert.holds))
    assert outcomes == {(pool, holds) for pool in ("idempotent", "projection")
                        for holds in (True, False)}


def test_rickart_certificate_keeps_first_generator_in_pool_order(corpus, oracle_contexts):
    """Over a pool in descending order, each witness is still the first generator of its
    ideal in that order, as a scan of the pool finds it; M2(Z2) has ideals with several
    idempotent generators."""
    for r in [*_fact_rings(corpus, oracle_contexts), mo.build_zn(4), mo.build_matrix_ring(3)]:
        pool = r.idempotent_pool[::-1]
        assert tuple(rings._rickart_cert(r, pool)) == rickart_from_tables(r.mul, r.zero, pool)


def test_proper_star_z10():
    assert mo.is_proper_star(mo.build_zn(10))


def test_projections_need_involution():
    m2 = mo.build_matrix_ring(2)
    bare = mo.build_ring_from_tables(m2.add, m2.mul, name="M2(Z2)-bare")
    assert bare.involution is None  # noncommutative: no identity fallback
    with pytest.raises(ValueError):
        bare.projections()


def test_star_and_proper_star_need_an_involution():
    m2 = mo.build_matrix_ring(2)
    bare = mo.build_ring_from_tables(m2.add, m2.mul, name="M2(Z2)-bare")
    with pytest.raises(ValueError, match=r"^M2\(Z2\)-bare has no involution$"):
        bare.star(1)
    with pytest.raises(ValueError, match=r"^M2\(Z2\)-bare has no involution$"):
        mo.is_proper_star(bare)


# -- element relations -------------------------------------------------------------


def test_vn_regular_witness():
    z10 = mo.build_zn(10)
    assert mo.vn_regular_witness(z10, 0) == 0
    assert mo.vn_regular_witness(z10, 2) == 3
    assert mo.vn_regular_witness(mo.build_zn(4), 2) is None


def test_hartwig_examples():
    z6 = mo.build_zn(6)
    v = mo.hartwig_minus_le(z6, 3, 5)
    assert v.holds and v.witness == mo.InnerInverse(3)
    z10 = mo.build_zn(10)
    assert mo.hartwig_minus_le(z10, 2, 6).holds is False
    for b in range(6):
        v = mo.hartwig_minus_le(z6, 0, b)
        assert v.holds and v.witness.value == 0


def test_ring_minus_annih_examples():
    z6 = mo.build_zn(6)
    v = mo.ring_minus_le_annih(z6, 2, 5)
    assert v.holds and (v.witness.p, v.witness.q) == (4, 4)
    assert not mo.ring_minus_le_annih(z6, 1, 5).holds
    # reflexive on regular elements
    for a in range(6):
        if mo.vn_regular_witness(z6, a) is not None:
            assert mo.ring_minus_le_annih(z6, a, a).holds


@pytest.mark.parametrize("build", [
    lambda: mo.build_zn(6),
    lambda: mo.build_zn(10),
    lambda: mo.build_product(mo.build_zn(2), mo.build_zn(3)),
    lambda: mo.build_matrix_ring(2),
])
def test_hartwig_agrees_with_annih_form_on_regular_rings(build):
    """The two ring-level definitions coincide when every element is regular."""
    r = build()
    assert all(mo.vn_regular_witness(r, a) is not None for a in range(r.size))
    for a in range(r.size):
        for b in range(r.size):
            h = mo.hartwig_minus_le(r, a, b)
            w = mo.ring_minus_le_annih(r, a, b)
            assert h.holds == w.holds, (a, b)
            from modorder.rings import revalidate_ring
            assert revalidate_ring(h, r) and revalidate_ring(w, r)
