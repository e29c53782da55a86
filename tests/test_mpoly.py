"""Sparse polynomial arithmetic: canonical form, exactness, evaluation."""

import json
import random

import pytest

from qwitt.errors import UnsupportedRingOperation
from qwitt.mpoly import MPoly, Q, parse_var, xvar, yvar
from qwitt.rings import Z, ZQ, TwistedRing, ZModRing

X1, X2, Y1, Y2 = MPoly.var(xvar(1)), MPoly.var(xvar(2)), MPoly.var(yvar(1)), MPoly.var(yvar(2))


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


def _rand_poly(rng):
    out = MPoly.zero()
    for _ in range(rng.randint(1, 5)):
        mono = MPoly.const(rng.randint(-5, 5))
        for v in (xvar(1), xvar(2), yvar(1), Q):
            e = rng.randint(0, 2)
            if e:
                mono = mono * MPoly.var(v, e)
        out = out + mono
    return out


def test_eval_is_ring_hom():
    rng = random.Random(20)
    zm = ZModRing(9)
    names = [xvar(1), xvar(2), yvar(1), Q]
    for _ in range(500):
        p, r = _rand_poly(rng), _rand_poly(rng)
        assign = {v: zm.random(rng) for v in names}
        assert (p + r).eval(zm, assign) == zm.add(p.eval(zm, assign), r.eval(zm, assign))
        assert (p * r).eval(zm, assign) == zm.mul(p.eval(zm, assign), r.eval(zm, assign))


def test_substitute_then_eval_is_composed_assignment():
    rng = random.Random(21)
    zm = ZModRing(6)
    names = [xvar(1), xvar(2), yvar(1), Q]
    for _ in range(500):
        p = _rand_poly(rng)
        inner = _rand_poly(rng)
        assign = {v: zm.random(rng) for v in names}
        lhs = p.substitute({xvar(1): inner}).eval(zm, assign)
        rhs = p.eval(zm, {**assign, xvar(1): inner.eval(zm, assign)})
        assert lhs == rhs


def _substitute_by_repeated_addition(p, mapping):
    # the loop substitute ran before it accumulated in place: the oracle
    acc = MPoly.zero()
    for key, c in p.terms():
        term = MPoly.const(c)
        for v, e in key:
            sub = mapping.get(v)
            term = term * (MPoly({((v, e),): 1}) if sub is None else sub**e)
        acc = acc + term
    return acc


def test_substitute_keeps_the_terms_and_order_of_repeated_addition():
    # eval and the ghost weights walk the terms in dict order, so the
    # in-place accumulation must leave that order as it was
    rng = random.Random(23)
    for _ in range(300):
        p, inner, other = _rand_poly(rng), _rand_poly(rng), _rand_poly(rng)
        for mapping in ({xvar(1): inner}, {xvar(1): inner, yvar(1): -inner},
                        {Q: other, xvar(2): MPoly.zero()}):
            got = p.substitute(mapping)
            want = _substitute_by_repeated_addition(p, mapping)
            assert list(got.terms()) == list(want.terms())


def test_div_round_trip():
    rng = random.Random(22)
    for _ in range(200):
        p = _rand_poly(rng)
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
        p = _rand_poly(rng)
        assert MPoly.from_json(p.to_json()) == p


def test_pow_matches_repeated_mul():
    p = X1 + 2 * Y1
    assert p**3 == p * p * p
    assert p**0 == MPoly.const(1)


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
