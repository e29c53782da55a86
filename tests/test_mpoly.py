"""Sparse polynomial arithmetic: canonical form, exactness, evaluation."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from qwitt import mpoly
from qwitt.errors import BudgetExceeded, UnsupportedRingOperation
from qwitt.mpoly import MPoly, Q, parse_var, var_name, xvar, yvar
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
            term = term * (MPoly.var(v, e) if sub is None else sub**e)
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


def test_rows_round_trip_in_the_order_of_to_json():
    rng = random.Random(29)
    for _ in range(100):
        p = _rand_poly(rng)
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


# --- the packed keys against tuple keys -------------------------------------
# The oracle: polynomials as dicts from sorted ((var, exp), ...) tuples to
# coefficients, multiplied by merging the tuples, the representation MPoly
# had before its keys were packed.  Its loops run in MPoly's order, so the
# terms must agree in order too.

def _merge(k1, k2):
    out, i, j = [], 0, 0
    while i < len(k1) and j < len(k2):
        (v1, e1), (v2, e2) = k1[i], k2[j]
        if v1 == v2:
            out.append((v1, e1 + e2))
            i, j = i + 1, j + 1
        elif v1 < v2:
            out.append(k1[i])
            i += 1
        else:
            out.append(k2[j])
            j += 1
    return tuple(out + list(k1[i:]) + list(k2[j:]))


def _accumulate(out, key, c):
    s = out.get(key, 0) + c
    if s:
        out[key] = s
    elif key in out:
        del out[key]


def _ref_mul(a, b):
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            _accumulate(out, _merge(k1, k2), c1 * c2)
    return out


def _ref_pow(a, e):
    result, base = {(): 1}, a
    while e:
        if e & 1:
            result = _ref_mul(result, base)
        e >>= 1
        if e:
            base = _ref_mul(base, base)
    return result


def _ref_substitute(a, mapping):
    out = {}
    for key, c in a.items():
        term = {(): c}
        for v, e in key:
            sub = mapping.get(v)
            term = _ref_mul(term, {((v, e),): 1} if sub is None else _ref_pow(sub, e))
        for k, tc in term.items():
            _accumulate(out, k, tc)
    return out


def _ref_div_var(a, v):
    out = {}
    for key, c in a.items():
        exps = dict(key)
        if v not in exps:
            return None
        out[tuple((w, e - (w == v)) for w, e in key if (w, e) != (v, 1))] = c
    return out


def _ref_to_json(a):
    return {"monomials": [{"coeff": str(a[key]), "exps": {var_name(v): e for v, e in key}}
                          for key in sorted(a)]}


# many variables, so that keys span many slots; two of them with exponents
# whose sums carry within their slot.  Substitution maps only the others,
# and maps them to polynomials with large exponents too, whose powers
# (at most 9th, as a term holds up to three factors of at most a cube)
# stay below the top of a slot.
_SMALL = st.sampled_from([Q] + [xvar(d) for d in (1, 2, 3, 12)] + [yvar(d) for d in (1, 2, 7)])
_LARGE = st.sampled_from([xvar(40), yvar(40)])
_FACTOR = st.one_of(
    st.tuples(_SMALL, st.integers(1, 3)),
    st.tuples(_LARGE, st.sampled_from([1, (1 << (mpoly._W - 8)) - 1, 1 << (mpoly._W - 8)])))
_TERMS = st.lists(st.tuples(st.integers(-3, 3),
                            st.lists(_FACTOR, max_size=3)),
                  max_size=6)


def _both(terms):
    """The same polynomial as an MPoly, built by + and *, and as a tuple dict."""
    p, ref = MPoly.zero(), {}
    for c, factors in terms:
        mono, key = MPoly.const(c), ()
        for v, e in factors:
            mono, key = mono * MPoly.var(v, e), _merge(key, ((v, e),))
        p = p + mono
        if c:
            _accumulate(ref, key, c)
    return p, ref


@settings(max_examples=200)
@given(_TERMS, _TERMS, _TERMS, _SMALL, _LARGE)
def test_packed_keys_match_tuple_keys(t1, t2, t3, v, w):
    (p, a), (r, b), (s, c) = _both(t1), _both(t2), _both(t3)
    assert list(p.terms()) == list(a.items())
    assert list((p * r).terms()) == list(_ref_mul(a, b).items())
    assert list((r * p).terms()) == list(_ref_mul(b, a).items())
    for mapping, ref_mapping in (({v: r}, {v: b}), ({v: r, xvar(1): s}, {v: b, xvar(1): c})):
        got = p.substitute(mapping)
        assert list(got.terms()) == list(_ref_substitute(a, ref_mapping).items())
    for u in (v, w):
        want = _ref_div_var(a, u)
        got = p.div_exact_var(u)
        assert (got is None) == (want is None)
        if got is not None:
            assert list(got.terms()) == list(want.items())
    assert p.to_json() == _ref_to_json(a)
    assert MPoly.from_json(p.to_json()) == p


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
