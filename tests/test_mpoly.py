"""Sparse polynomial arithmetic: canonical form, exactness, evaluation.

The packed keys, substitute and ** against tuple keys are rows of the
table in test_differential.py, run here under the names of the tests
they replaced.  The seeded tests draw the mpoly suite's polynomials,
``suites._rand_poly``.
"""

import json
import random
import time

import pytest
from hypothesis import given, settings, strategies as st
from test_differential import SMALL, bind, check, mpolys

from qwitt import mpoly, suites
from qwitt.errors import BudgetExceeded, UnsupportedRingOperation
from qwitt.mpoly import MPoly, Q, parse_var, xvar, yvar
from qwitt.rings import Z, ZQ, TwistedRing, ZModRing

X1, X2, Y1, Y2 = MPoly.var(xvar(1)), MPoly.var(xvar(2)), MPoly.var(yvar(1)), MPoly.var(yvar(2))
SUBSTITUTE = "test_mpoly::test_substitute_matches_the_one_term_product_route"
bind(globals())


def test_substitute_examples():
    p = X1 + Y1
    assert p.substitute({xvar(1): X1 * X1, yvar(1): MPoly.zero()}) == X1 * X1
    assert (X1 * Y1) * MPoly.var(Q) == MPoly.var(Q) * X1 * Y1


def test_q_scale_then_divide():
    # substituting x -> q*x, y -> q*y into x*y and dividing by q leaves q*x*y
    qp = MPoly.var(Q)
    p = X1 * Y1
    scaled = p.substitute({xvar(1): qp * X1, yvar(1): qp * Y1})
    assert scaled.div_exact_var(Q) == qp * X1 * Y1


def test_try_div_int_examples():
    assert (2 * X1 + 4 * Y1).try_div_int(2) == X1 + 2 * Y1
    assert (2 * X1 + 3 * Y1).try_div_int(2) is None
    assert ((X1 + Y1) ** 2 - X1 * X1 - Y1 * Y1).try_div_int(2) == X1 * Y1


def test_eval_examples():
    zm = ZModRing(6)
    assert (X1 + Y1).eval(zm, {xvar(1): 4, yvar(1): 5}) == 3
    q_el = ZQ.from_str("q")
    p = MPoly.var(Q) * X1 * Y1
    assert p.eval(ZQ, {Q: q_el, xvar(1): (1,), yvar(1): (1,)}) == q_el
    p2 = 2 * X2 + X1 * X1
    assert p2.eval(Z, {xvar(1): 1, xvar(2): 1}) == 3


def test_eval_constant_needs_unit():
    tw = TwistedRing(Z, 2)
    with pytest.raises(UnsupportedRingOperation):
        (MPoly.const(1) + X1).eval(tw, {xvar(1): 3})
    # zero constant term is fine in a non-unital ring
    assert (X1 * Y1).eval(tw, {xvar(1): 3, yvar(1): 5}) == 30


def test_eval_is_ring_hom():
    rng = random.Random(20)
    zm = ZModRing(9)
    names = [xvar(1), xvar(2), yvar(1), Q]
    for _ in range(500):
        p, r = suites._rand_poly(rng), suites._rand_poly(rng)
        assign = {v: zm.random(rng) for v in names}
        assert (p + r).eval(zm, assign) == zm.add(p.eval(zm, assign), r.eval(zm, assign))
        assert (p * r).eval(zm, assign) == zm.mul(p.eval(zm, assign), r.eval(zm, assign))


def test_substitute_then_eval_is_composed_assignment():
    rng = random.Random(21)
    zm = ZModRing(6)
    names = [xvar(1), xvar(2), yvar(1), Q]
    for _ in range(500):
        p = suites._rand_poly(rng)
        inner = suites._rand_poly(rng)
        assign = {v: zm.random(rng) for v in names}
        lhs = p.substitute({xvar(1): inner}).eval(zm, assign)
        rhs = p.eval(zm, {**assign, xvar(1): inner.eval(zm, assign)})
        assert lhs == rhs


def test_substitute_keeps_the_terms_and_order_of_repeated_addition():
    # eval and the ghost weights walk the terms in dict order, so the
    # in-place accumulation must leave that order as it was
    rng = random.Random(23)
    for _ in range(300):
        p, inner, other = suites._rand_poly(rng), suites._rand_poly(rng), suites._rand_poly(rng)
        for mapping in ({xvar(1): inner}, {xvar(1): inner, yvar(1): -inner},
                        {Q: other, xvar(2): MPoly.zero()}):
            check(SUBSTITUTE, p, mapping)


def test_div_round_trip():
    rng = random.Random(22)
    for _ in range(200):
        p = suites._rand_poly(rng)
        k = rng.randint(1, 12)
        assert (k * p).try_div_int(k) == p


def test_canonical_equality_and_zero():
    assert X1 - X1 == MPoly.zero()
    assert (X1 + Y1) - Y1 == X1
    assert MPoly.const(0).is_zero()
    assert not (X1 * 0 + MPoly.const(1)).is_zero()


def test_json_round_trip():
    rng = random.Random(23)
    for _ in range(100):
        p = suites._rand_poly(rng)
        assert MPoly.from_json(p.to_json()) == p


def test_rows_round_trip_in_the_order_of_to_json():
    rng = random.Random(29)
    for _ in range(100):
        p = suites._rand_poly(rng)
        rows = p.to_rows()
        assert MPoly.from_rows(rows) == p
        assert [[int(m["coeff"]), *(x for pair in m["exps"].items() for x in pair)]
                for m in p.to_json()["monomials"]] == rows
    p = 3 * MPoly.var(xvar(10), 2) * MPoly.var(Q) - MPoly.var(xvar(2)) + MPoly.const(5)
    assert p.to_rows() == [[5], [3, "q", 1, "x10", 2], [-1, "x2", 1]]


@pytest.mark.parametrize("row, error", [
    (["1", "x1", 1], ValueError), ([True, "x1", 1], ValueError), ([1, "x1", "1"], ValueError),
    ([1, "x1", 0], ValueError), ([1, "x1", -2], ValueError), ([1, "x1"], ValueError),
    ([1, "z1", 1], ValueError), ([1, "x1", 1, "x1", 2], ValueError),
    ([1, "x1", 1 << 31], BudgetExceeded), ([1, "x1", [1]], ValueError), ([1, 1, 1], TypeError),
])
def test_malformed_rows_are_refused(row, error):
    with pytest.raises(error):
        MPoly.from_rows([[1, "y1", 1], row])


@pytest.mark.parametrize("name", ["x01", "y007", "x0", "x", "x١", "x²", "z1",
                                  "x-1", " x1", "Q"])
def test_non_canonical_variable_names_are_rejected(name):
    with pytest.raises(ValueError):
        parse_var(name)
    data = {"monomials": [{"coeff": "1", "exps": {"x1": 1, name: 1}}]}
    with pytest.raises(ValueError):
        MPoly.from_json(data)


def test_canonical_variable_names_read_back():
    assert [parse_var(n) for n in ("q", "x1", "y12", "x10")] == [
        Q, xvar(1), yvar(12), xvar(10)]
    data = {"monomials": [{"coeff": "3", "exps": {"x1": 2, "y10": 1, "q": 4}}]}
    p = MPoly.from_json(data)
    assert p == 3 * MPoly.var(xvar(1), 2) * MPoly.var(yvar(10)) * MPoly.var(Q, 4)
    assert json.dumps(p.to_json(), sort_keys=True) == json.dumps(data, sort_keys=True)


def test_an_exponent_at_the_top_of_a_slot_does_not_wrap():
    top = (1 << (mpoly._W - 1)) - 1  # the largest exponent a slot holds
    x, y = MPoly.var(xvar(1)), MPoly.var(yvar(1))
    big = MPoly.var(xvar(1), top)
    for product in (lambda: big * big,  # one monomial times one
                    lambda: (big + y) * x,  # any times one monomial
                    lambda: x * (big + y),  # one monomial times any
                    lambda: (big + y) * (x + y),  # the general loop
                    lambda: big**2,
                    lambda: (big * y).substitute({yvar(1): x})):
        with pytest.raises(BudgetExceeded):
            product()
    with pytest.raises(BudgetExceeded):
        MPoly.var(xvar(1), top + 1)
    with pytest.raises(BudgetExceeded):
        MPoly.from_json({"monomials": [{"coeff": "1", "exps": {"x1": top + 1}}]})
    # the largest product that fits, and its neighbour in the next slot
    half = MPoly.var(xvar(1), (top + 1) // 2 - 1)
    assert (half * half * y).terms() == [(((xvar(1), top - 1), (yvar(1), 1)), 1)]
    assert (big * y).div_exact_var(yvar(1)) == big


def test_a_term_is_the_product_of_its_powers():
    top = (1 << (mpoly._W - 1)) - 1
    rng = random.Random(78)
    names = [xvar(1), xvar(2), yvar(1), yvar(3), Q]
    for _ in range(200):
        c = rng.randint(-5, 5)
        exps = [(v, rng.randint(0, 3)) for v in rng.sample(names, rng.randint(0, 5))]
        exps += [(exps[0][0], 2)] if exps and rng.random() < 0.3 else []  # a repeated variable
        want = MPoly.const(c)
        for v, e in exps:
            want = want * MPoly.var(v, e)
        assert MPoly.term(c, exps) == want and MPoly.term(c, exps).terms() == want.terms()
    assert MPoly.term(3, []) == MPoly.const(3) and MPoly.term(0, [(Q, 2)]).is_zero()
    with pytest.raises(ValueError):
        MPoly.term(1, [(Q, -1)])
    with pytest.raises(BudgetExceeded):  # x^top * x, refused as the product is
        MPoly.term(1, [(xvar(1), top), (xvar(1), 1)])
    with pytest.raises(BudgetExceeded):
        MPoly.term(1, [(xvar(1), top + 1)])


def test_substitute_cancels_and_refuses_as_the_one_term_product_route():
    top = (1 << (mpoly._W - 1)) - 1
    x, y, q = MPoly.var(xvar(1)), MPoly.var(yvar(1)), MPoly.var(Q)
    big = MPoly.var(xvar(40), top)
    cases = [(x + y, {yvar(1): -x}),  # cancels to zero
             (x * y - q * y + x, {yvar(1): x - q, Q: x}),  # cancels in part
             (3 * x * y * y + q, {yvar(1): MPoly.zero()}),  # a zero factor
             (big * y, {yvar(1): x}),  # fits: the mapped part holds no x40
             (big * y + q, {yvar(1): MPoly.var(xvar(40)) + x}),  # passes the top bit
             # the power of the mapped polynomial fits, its product with the term does not
             (MPoly.var(xvar(40), 1 << (mpoly._W - 2)) * y * y,
              {yvar(1): MPoly.var(xvar(40), (1 << (mpoly._W - 3)) + 1)})]
    outcomes = [check(SUBSTITUTE, p, mapping) for p, mapping in cases]
    assert outcomes[0] == [] and outcomes[2] == [(((Q, 1),), 1)]
    refused = [str(got).startswith("BudgetExceeded") for got in outcomes]
    assert refused == [False] * 4 + [True] * 2


def _eval_by_ring_ops(p, ring, assign):
    acc = ring.zero()
    for key, c in p.terms():
        val = ring.one()
        for v, e in key:
            val = ring.mul(val, ring.pow(assign[v], e))
        acc = ring.add(acc, ring.int_scale(c, val))
    return acc


@settings(max_examples=200)
@given(mpolys(st.tuples(SMALL, st.integers(1, 3))),
       st.lists(st.integers(-50, 50), min_size=8, max_size=8))
def test_eval_over_z_and_zmod_matches_the_ring_loop(p, values):
    names = [Q, xvar(1), xvar(2), xvar(3), xvar(12), yvar(1), yvar(2), yvar(7)]
    assign = dict(zip(names, values))
    for ring in (Z, ZModRing(6)):
        # the same ring, but not one whose cover is Z: the ring-op loop
        want = _eval_by_ring_ops(p, ring, assign)
        assert p.eval(ring, assign) == want == p.eval(TwistedRing(ring, 1), assign)
    with pytest.raises(ValueError):
        (p + MPoly.var(xvar(5))).eval(Z, assign)


def test_eval_over_zmod_takes_each_power_through_the_ring():
    # x^(2^20) as an int has a million bits; pow(x, 2^20, 7) does not
    zm = ZModRing(7)
    exps = [(1 << 20) + k for k in range(8)]
    p = sum((MPoly.var(xvar(1), e) for e in exps), MPoly.const(5))
    start = time.perf_counter()
    got = p.eval(zm, {xvar(1): 3})
    assert time.perf_counter() - start < 0.1
    assert got == (5 + sum(pow(3, e, 7) for e in exps)) % 7
