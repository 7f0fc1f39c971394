"""Witness identity and witness replay, for every relation tag."""

import hashlib
import json
from collections import namedtuple

import pytest

import modorder as mo
from modorder.rings import RING_RELATIONS, revalidate_ring
from modorder.verdicts import (AnnihPair, DirectSumWitness, DualWitness, IdemPair,
                               InnerInverse, MapPair, OrderVerdict)

from oracles import image_parts, relaxed_parts

TAGS = ("minus-dual", "minus-idem", "minus-relaxed", "minus-image", "jones", "mitsch",
        "mitsch-sym", "gb", "dsum", "rstar", "lstar", "star")

# sha256 of every relation matrix over the default corpus, witnesses included
MATRICES_SHA256 = "7ff2c1095b300add38acf852cf48007ead3472d753df2144f84e0c5c61e0223e"

# sha256 of every module and ring relation matrix, witnesses included, and the
# run_suite records, over every Z_m/Z_n with n <= 16 and four R_R
ANSWERS_SHA256 = "54cb7350a22cbf66abd4f61479331986b2c8fb9a285f513e7aa5dc70607e2265"


def _digest_members():
    for n in range(1, 17):
        for m in range(1, n + 1):
            if n % m == 0:
                yield f"Z{m}/Z{n}", mo.build_zm_over_zn(m, n)
    z = mo.build_zn
    for name, ring in (("Z2xZ4", mo.build_product(z(2), z(4))),
                       ("Z2xZ2xZ2", mo.build_product(mo.build_product(z(2), z(2)), z(2))),
                       ("Z3xZ6", mo.build_product(z(3), z(6))),
                       ("M2(Z2)", mo.build_matrix_ring(2))):
        yield name, mo.build_ring_as_module(ring)


def test_relation_matrices_digest(corpus):
    h = hashlib.sha256()
    for name, ctx in corpus.items():
        for tag in TAGS:
            rows = [[v.to_json() for v in row] for row in mo.relation_matrix(ctx, tag).verdicts]
            h.update(json.dumps([name, tag, rows], sort_keys=True,
                                separators=(",", ":")).encode())
    assert h.hexdigest() == MATRICES_SHA256


def test_answers_digest():
    h, members = hashlib.sha256(), 0
    for name, module in _digest_members():
        ctx, ring, members = mo.ModuleContext(module, name), module.ring, members + 1
        answers = [[v.to_json() for row in mo.relation_matrix(ctx, tag).verdicts for v in row]
                   for tag in TAGS]
        answers += [[rel(ring, a, b).to_json() for a in range(ring.size)
                     for b in range(ring.size)] for rel in RING_RELATIONS.values()]
        answers.append([r.to_json() for r in mo.run_suite([ctx])])
        h.update(json.dumps([name, answers], sort_keys=True, separators=(",", ":")).encode())
    assert members == 54
    assert h.hexdigest() == ANSWERS_SHA256


def _definitional_parts(ctx, tag):
    """The clause parts of minus-image or minus-relaxed by their set definitions, for each
    m1 (a dict by pool element for f and one for a); None for any other relation."""
    M, maps = ctx.module, ctx.endos.maps
    if tag == "minus-image":
        return image_parts(M.action, M.ring.mul, maps)
    if tag == "minus-relaxed":
        return relaxed_parts(M.add, M.action, M.ring.mul, maps)
    return None


def _tampered(ctx, v):
    """Copies of v's witness with one part swapped for a non-pool element or one flag
    flipped; a minus-image or minus-relaxed witness also with f, and separately a, swapped
    for each other pool element whose part misses m2 by the set definition; a direct-sum
    witness also with its second summand swapped for each other class B' of the pool,
    which cannot cover m2, as only B = (m2 - m1)R can (a replay of the part on the
    one-element pool (B',))."""
    S, R, w, (m1, m2) = ctx.endos, ctx.module.ring, v.witness, v.operands
    if isinstance(w, DualWitness):  # maps 0 to 1, so it is no functional
        yield w._replace(table=tuple((x + 1) % R.size for x in w.table))
    elif isinstance(w, IdemPair):
        yield w._replace(f=next(f for f in range(S.size) if S.mul[f][f] != f))
        yield w._replace(a=next(a for a in range(R.size) if R.mul[a][a] != a))
        yield w._replace(f_projection=not w.f_projection)
        yield w._replace(a_projection=not w.a_projection)
        if (parts := _definitional_parts(ctx, v.relation)) is not None:
            f_parts, a_parts = parts[m1]
            assert f_parts[w.f] >> m2 & 1 and a_parts[w.a] >> m2 & 1
            yield from (w._replace(f=f) for f, mask in f_parts.items() if not mask >> m2 & 1)
            yield from (w._replace(a=a) for a, mask in a_parts.items() if not mask >> m2 & 1)
    elif isinstance(w, MapPair):
        yield w._replace(f=S.size)
        yield w._replace(a=R.size)
    elif isinstance(w, DirectSumWitness):
        yield w._replace(first=w.second, second=w.first)
        yield w._replace(first=tuple(reversed(w.first)))
        assert w.second == tuple(sorted(ctx.cyclic[ctx.module.sub(m2, m1)]))
        pool = mo.direct_sum_le.pools(ctx)[1]
        assert w.second in pool and len(pool) > 1
        yield from (w._replace(second=b) for b in pool if b != w.second)
    else:
        raise AssertionError(f"no tampering for {w!r}")


def test_replay_rejects_tampered_module_witnesses(z6_over_z30):
    ctx = z6_over_z30
    verdicts = [mo.evaluate(ctx, tag, 2, 5) for tag in TAGS]
    verdicts.append(mo.is_regular_element(ctx, 2))
    for v in verdicts:
        assert v.holds and mo.revalidate(ctx, v), v.relation
        tampered = list(_tampered(ctx, v))
        if v.relation in ("minus-image", "minus-relaxed"):  # f in {0, 1, 3}, six values of a
            assert len(tampered) == 4 + 3 + 6, v.relation
        for w in tampered:
            assert not mo.revalidate(ctx, v._replace(witness=w)), (v.relation, w)
        assert not mo.revalidate(ctx, v._replace(hypothesis_ok=not v.hypothesis_ok))


def test_replay_rejects_tampered_ring_witnesses():
    z6 = mo.build_zn(6)
    hartwig = mo.hartwig_minus_le(z6, 3, 5)
    annih = mo.ring_minus_le_annih(z6, 2, 5)
    assert revalidate_ring(hartwig, z6) and revalidate_ring(annih, z6)
    for v, w in ((hartwig, hartwig.witness._replace(value=6)),
                 (annih, annih.witness._replace(p=2)),
                 (annih, annih.witness._replace(q=2))):
        assert not revalidate_ring(v._replace(witness=w), z6), w
    for v in (hartwig, annih):
        assert not revalidate_ring(v._replace(hypothesis_ok=False), z6)


def _foreign(w):
    """w's fields as a bare tuple, in every other witness class of w's arity, and in a
    record with w's very field names: each compares equal to w, none is of its type."""
    yield tuple(w)
    for cls in (DualWitness, IdemPair, MapPair, DirectSumWitness, InnerInverse, AnnihPair):
        if cls is not type(w) and len(cls._fields) == len(w):
            yield cls(*w)
    yield namedtuple("Forged", w._fields)(*w)


def _every_verdict(corpus):
    """(verdict, n, replay) for every verdict of the 12 module relations on Z6/Z30 and
    M2(Z2)_R, and of the ring relations on Z6, with the carrier size n."""
    z6 = mo.build_zn(6)
    cases = [(v, ctx.module.size, lambda v, ctx=ctx: mo.revalidate(ctx, v))
             for ctx in (corpus["Z6/Z30"], corpus["M2(Z2)"]) for tag in TAGS
             for row in mo.relation_matrix(ctx, tag).verdicts for v in row]
    return cases + [(rel(z6, a, b), 6, lambda v: revalidate_ring(v, z6))
                    for rel in RING_RELATIONS.values() for a in range(6) for b in range(6)]


def test_replay_rejects_foreign_witness_types(corpus):
    """Every positive verdict of the 12 module relations on Z6/Z30 and M2(Z2)_R, and of
    the ring relations on Z6, replays; the same values in another type do not."""
    positive = [(v, replay) for v, _, replay in _every_verdict(corpus) if v.holds]
    assert {v.relation for v, _ in positive} >= {*TAGS[:9], "hartwig", "ring-annih"}
    for v, replay in positive:
        assert replay(v), v
        for w in _foreign(v.witness):
            assert w == v.witness and not replay(v._replace(witness=w)), (v, w)


def test_replay_rejects_operands_out_of_range(corpus):
    """Every verdict of the 12 module relations on Z6/Z30 and M2(Z2)_R, and of the ring
    relations on Z6, positive or negative, replays, and replays False with either operand
    shifted by n or -n: no row is read from its end, and no shift count is negative."""
    cases, shifted = _every_verdict(corpus), 0
    assert {v.relation for v, _, _ in cases if v.holds} >= {*TAGS[:9], "hartwig", "ring-annih"}
    assert {v.relation for v, _, _ in cases if not v.holds} == {*TAGS, "hartwig", "ring-annih"}
    for v, n, replay in cases:
        x, y = v.operands
        assert replay(v), v
        for operands in ((x - n, y), (x + n, y), (x, y - n), (x, y + n)):
            assert replay(v._replace(operands=operands)) is False, (v, operands)
            shifted += 1
    assert shifted == 4 * len(cases)


def test_replay_accepts_a_negative_verdict_only_as_the_search_gives_it(corpus):
    """A negative verdict replays False with applicable or hypothesis_ok flipped, not
    applicable ones included, and no positive verdict replays with holds=False and no
    witness: a negative verdict is the search's own at its cell, but for its tag."""
    cases = _every_verdict(corpus)
    assert {v.applicable for v, _, _ in cases if not v.holds} == {True, False}
    for v, _, replay in cases:
        if v.holds:
            assert replay(v._replace(holds=False, witness=None)) is False, v
        else:
            assert replay(v._replace(applicable=not v.applicable)) is False, v
            assert replay(v._replace(hypothesis_ok=not v.hypothesis_ok)) is False, v


def test_replay_refuses_an_unknown_relation(z6_over_z30):
    z6 = mo.build_zn(6)
    with pytest.raises(ValueError, match="^unknown relation 'hartwig'$"):
        mo.revalidate(z6_over_z30, mo.hartwig_minus_le(z6, 3, 5))
    with pytest.raises(ValueError, match="^unknown relation 'no-such'$"):
        mo.revalidate(z6_over_z30, OrderVerdict("no-such", (0, 0), False))
    with pytest.raises(ValueError, match="^not a ring-level relation: minus-dual$"):
        revalidate_ring(mo.minus_le_dual(z6_over_z30, 2, 5), z6)
    with pytest.raises(ValueError, match="^not a ring-level relation: no-such$"):
        revalidate_ring(OrderVerdict("no-such", (0, 0), False), z6)


def test_verdict_keeps_holds_iff_witness_on_every_construction_path(z6_over_z30):
    v = mo.minus_le_idem(z6_over_z30, 2, 5)
    assert v.holds and v.witness is not None
    for build in (lambda: OrderVerdict("minus-idem", (2, 5), True),
                  lambda: OrderVerdict("minus-idem", (2, 5), False, v.witness),
                  lambda: v._replace(witness=None),
                  lambda: v._replace(holds=False),
                  lambda: OrderVerdict._make((*v[:2], False, *v[3:]))):
        with pytest.raises(ValueError, match="holds <-> witness"):
            build()
    for w in (v._replace(hypothesis_ok=False), v._replace(holds=False, witness=None),
              OrderVerdict("star", (1, 2), False, applicable=False)):
        assert type(w) is OrderVerdict
    assert v._replace(hypothesis_ok=False) == (*v[:4], False, True)


def test_replay_rejects_flipped_hypothesis(z4_over_z4):
    """Z4/Z4 is not regular: 0 is, 2 is not."""
    ctx = z4_over_z4
    for v in (mo.minus_le_idem(ctx, 0, 2), mo.minus_le_relaxed(ctx, 0, 2)):
        assert v.holds and mo.revalidate(ctx, v), v.relation
        assert not mo.revalidate(ctx, v._replace(hypothesis_ok=not v.hypothesis_ok))


def test_rstar_replay_rejects_forged_projections(corpus):
    """On M2(Z2)_R an idempotent a with a* != a must not pass as a projection."""
    ctx = corpus["M2(Z2)"]
    S, R = ctx.endos, ctx.module.ring
    assert R.star(5) == 3 and not mo.right_star_le(ctx, 1, 13).holds
    assert not mo.revalidate(ctx, OrderVerdict("rstar", (1, 13), True, IdemPair(4, 5)))
    accepted = []
    for m1 in range(R.size):
        for m2 in range(R.size):
            if mo.right_star_le(ctx, m1, m2).holds:
                continue
            for f in sorted(S.idempotents()):
                for a in sorted(R.idempotents()):
                    for flags in ((False, False), (False, True), (True, False), (True, True)):
                        v = OrderVerdict("rstar", (m1, m2), True, IdemPair(f, a, *flags))
                        if mo.revalidate(ctx, v):
                            accepted.append(((m1, m2), v.witness))
    assert accepted == []
