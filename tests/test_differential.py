"""Fast routes against their references, as one table.

The fast routes -- the generated kernels, packed Z[q] and packed ``MPoly``
keys -- are held against references: the row loops, the ring loops and
tuple-key polynomials.  Each ``Row`` of ``ROWS`` is named by the pytest id
under which it runs: a module's rows are tests of its own, which it puts
in its namespace with :func:`bind`.  The rows are the tests whose routes
are shared: the engine's, which compare what the ``witt._Kernels`` ops
give (:func:`results`), and the polynomial ones, which compare terms with
the tuple-key set.  Plain property tests stay where their subject is, and
take the shared strategies and references from here.

The comparison lives here, in a test module, because pytest rewrites the
asserts of test modules only: in a plain helper module ``python -O``
would strip them, and every row would pass unseen.
"""

import importlib
import operator
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

from hypothesis import example, given, settings, strategies as st

from qwitt import mpoly, rings, witt
from qwitt.errors import BudgetExceeded, NotInGhostImage
from qwitt.mpoly import MPoly, Q, var_name, xvar, yvar
from qwitt.rings import Z, ZQ, Ring, ZModRing, ZqRing, ZRing
from qwitt.truncset import TruncationSet, divisors
from qwitt.universal import Family


@dataclass(frozen=True)
class Row:
    name: str  # the pytest id of the test that runs the row: module::test
    fast: Callable
    ref: Callable
    inputs: object  # a strategy of argument tuples
    count: int  # hypothesis examples
    pins: tuple = ()  # argument tuples run first, as @example cases
    setup: Callable = lambda *drawn: (drawn, drawn)  # -> (the fast args, the reference args)
    seen: Callable = lambda value: value  # what of each route's value is compared


def outcome(error, fn, *args):
    """fn(*args), or, where it raises an ``error``, the text of that
    exception; any other exception propagates."""
    try:
        return fn(*args)
    except error as exc:
        return f"{type(exc).__name__}: {exc}"


def check(row, *drawn):
    """The one comparison: the fast route of a row (or of the row of that
    name) against its reference on the drawn inputs.  Returns the value
    compared."""
    row = row if isinstance(row, Row) else next(r for r in ROWS if r.name == row)
    fast_args, ref_args = row.setup(*drawn)
    got = row.seen(row.fast(*fast_args))
    assert got == row.seen(row.ref(*ref_args)), row.name
    return got


def _test(row: Row):
    def test():
        def one(drawn):
            check(row, *drawn)

        for pin in reversed(row.pins):
            one = example(pin)(one)
        settings(max_examples=row.count)(given(row.inputs)(one))()

    test.row = row
    return test


def bind(namespace: dict) -> None:
    """Put the test of each row of a module into its namespace, under the
    test's name."""
    module = Path(namespace["__file__"]).stem
    namespace.update({row.name.partition("::")[2]: _test(row) for row in ROWS
                      if row.name.startswith(module + "::")})


# ----------------------------------------------------------------------
# Shared strategies

COEFF = st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70))
# and at the edges of 64 bits, for the Kronecker products
COEFFS = st.one_of(COEFF, st.sampled_from([2**64, -(2**64), 2**64 + 1, -(2**65) + 1]))


def zq_elements(max_len, coeff=COEFFS):
    # raw tuples: zero, constants, leading negatives and untrimmed zeros
    return st.lists(coeff, max_size=max_len).map(tuple)


ZQ_ELEMENT = zq_elements(5, COEFF)
Z_COEFF = st.one_of(st.integers(-3, 3), st.integers(2**70 - 9, 2**70 + 9),
                    st.integers(-(2**70) - 9, -(2**70) + 9))
# the coordinates of a vector on a subset of {1, ..., 12}, as many as it takes
ZQ_COORDS, Z_COORDS = (st.lists(c, min_size=12, max_size=12) for c in (ZQ_ELEMENT, Z_COEFF))


# ----------------------------------------------------------------------
# The engine.  The fast routes are the generated kernels over Z and Z[q];
# the references are the row loops, and the ring loops of a context over
# LoopZ or LoopZq.


class LoopZq(Ring):
    """Z[q] as a plain ring, neither ``ZRing`` nor ``ZqRing``: a context
    over it runs every op through ``witt._ghost`` and ``witt._invert``,
    ring operations on coefficient tuples, never through a packed integer.
    The polynomial oracle checks those loops in turn over ``dual``,
    twisted and Witt rings."""
    descriptor = "zq:loop"
    unital = torsion_free = supports_div_int = True
    zero, one, from_int, is_zero, eq = (ZqRing.zero, ZqRing.one, ZqRing.from_int,
                                        ZqRing.is_zero, ZqRing.eq)
    add, neg, mul, int_scale, pow, try_div_int, to_str = map(staticmethod, (
        rings.zp_add, rings.zp_neg, rings.zp_mul, rings.zp_scale, rings.zp_pow,
        rings.zp_divexact, rings.zp_to_str))


class LoopZ(Ring):
    """Z as a plain ring: a context over it runs every op through ring
    operations, never through the integer loops that a context over Z
    runs."""
    descriptor = "z:loop"
    unital = torsion_free = supports_div_int = reduced = True
    zero, one, from_int, is_zero, try_div_int, check, to_str = (
        ZRing.zero, ZRing.one, ZRing.from_int, ZRing.is_zero, ZRing.try_div_int,
        ZRing.check, ZRing.to_str)
    add, sub, neg, mul, int_scale, pow, eq = map(staticmethod, (
        operator.add, operator.sub, operator.neg, operator.mul, operator.mul,
        operator.pow, operator.eq))


def results(k, tset, a, b, *gs) -> list:
    """What the ``witt._Kernels`` ops of k give on the coordinate tuples a
    and b over tset, each a value or the text of its NotInGhostImage: a+b,
    a*b, -a, the ghosts of a and b, F_m(a) for each m, and the unghosts of
    a (mostly not a ghost vector) and of each of gs."""
    ops = [(k.add, a, b), (k.mul, a, b), (k.neg, a), (k.ghost, a), (k.ghost, b),
           *((k.frob(m), a) for m in tset), *((k.unghost, g) for g in (a, *gs))]
    return [outcome(NotInGhostImage, *op) for op in ops]


def reduced(M, *args) -> list:
    # the results over Z, each reduced mod M where M is set
    return [tuple(c % M for c in r) if M and isinstance(r, tuple) else r for r in results(*args)]


def _ghosts(ghost, a, b, lift) -> list:
    """The ghost vectors that an engine row unghosts: those of b and of a
    (what try_div_int unghosts for 6b by 6 and for a+a by 2), and that of
    a divided by -3 in ``lift`` where every component divides."""
    ga = ghost(a)
    third = tuple(lift.try_div_int(g, -3) for g in ga)
    return [ghost(b), ga] + ([third] if None not in third else [])


def row_loops(ctx):
    """The kernels that ctx would run above the cap, at its W, T and M:
    ``_PackedLoops`` over Z[q], ``_LoopKernels`` over Z and zmod."""
    k, shape = ctx._kernels, witt._shape(ctx.tset)
    if not hasattr(k, "at"):
        return witt._LoopKernels(shape, k.W, k.T, k.M)
    loops = witt._PackedLoops(shape, k.W, k.T, None)
    loops.at = k.at
    return loops


def _over_loop_zq(ctx):
    loop = witt.WittCoeffRing(LoopZq(), ctx.tset, ctx.family, ctx.qval)
    assert type(loop._kernels) is witt._RingKernels
    return loop._kernels


def _vectors(ring, n, xs, ys):
    return tuple(ring.check(x) for x in xs[:n]), tuple(ring.check(y) for y in ys[:n])


def _divisor_stable_subsets(top: int) -> list:
    """Every divisor-stable subset of {1, ..., top}, as ascending tuples."""
    out = [()]
    for n in range(1, top + 1):
        out += [s + (n,) for s in out if set(divisors(n)[:-1]) <= set(s)]
    return out[1:]


DIVISOR_STABLE = _divisor_stable_subsets(12)
ZQ_FAMILIES = [
    (Family.classical(), None),
    (Family.qdef(), None),  # q is the generator
    (Family.qdef(), (3,)),
    (Family.qdef(), (-1, 2)),
    (Family.qbar(), None),
    (Family.qbar((1, -2, 0, 3)), None),
    (Family.lenart(2), None),
]
Z_FAMILIES = [
    (Family.classical(), None),
    (Family.qdef(), 3),
    (Family.qdef(), -1),
    (Family.qbar(), 2),
    (Family.lenart(2), None),
]
Z_RINGS = [Z, ZModRing(4), ZModRing(6), ZModRing(9)]
# (ring, family, q): the kernels' weights, twist and modulus come from
# these contexts; over zq at the weights packed at q = 2^s
KERNEL_CONTEXTS = [
    (Z, Family.classical(), None),
    (Z, Family.qdef(), -2),
    (ZModRing(4), Family.qbar(), 3),
    (ZModRing(9), Family.lenart(2), None),
    (ZQ, Family.qdef(), 3),  # an integer q
    (ZQ, Family.qdef(), None),  # the generator q
    (ZQ, Family.qbar((1, -2, 0, 3)), None),
]
BUMPS = [(1,), (0, 1), (1, -1)]  # 1 - q packs to a multiple of 3, 5 and 17 at s = 8, ..., 64


def _zq(reference, elems, fam, xs, ys, *bumped):
    """A context over Z[q] on elems, its generated ops as the fast route,
    and ``reference(ctx)``; with (k, bump), the ghost of b moved off the
    image at row k by the bump is unghosted too."""
    family, q = ZQ_FAMILIES[fam]
    tset = TruncationSet.make(elems)
    ctx = witt.WittCoeffRing(ZQ, tset, family, q)
    assert isinstance(ctx._kernels, witt._KERNEL_CACHE[witt._shape(tset)].packed)
    a, b = _vectors(ZQ, len(tset), xs, ys)
    gs = _ghosts(ctx.ghost, a, b, ZQ)
    if bumped:
        (k, bump), g = bumped, list(gs[0])
        g[k % len(tset)] = rings.zp_add(g[k % len(tset)], bump)
        gs.append(tuple(g))
    return (ctx._kernels, tset, a, b, *gs), (reference(ctx), tset, a, b, *gs)


def compiled(ctx) -> bool:
    """Whether the kernels of ``ctx`` are of a class that the compiled
    factory of its set's shape makes, the one in ``witt._KERNEL_CACHE``."""
    k, factory = ctx._kernels, witt._KERNEL_CACHE[witt._shape(ctx.tset)]
    return type(k) is factory.packed or type(k) is type(factory(k.W, k.T, k.M))


def _integer(fam, ring_at, picked, xs, ys):
    # a context over z or zmod against the context over LoopZ, at the same
    # integer q as the context's cover, so that every step agrees over Z
    family, q = Z_FAMILIES[fam]
    ring = Z_RINGS[ring_at]
    tset = TruncationSet.make(picked | {1})
    a, b = _vectors(ring, len(tset), xs, ys)
    ctx = witt.WittCoeffRing(ring, tset, family, q)
    loop = witt.WittCoeffRing(LoopZ(), tset, family, ctx.qval)
    assert ctx.add.__self__ is ctx._kernels and type(loop._kernels) is witt._RingKernels
    assert compiled(ctx)
    args = (tset, a, b, *_ghosts(loop.ghost, a, b, Z))
    return (ctx._kernels, *args), (ctx._kernels.M, loop._kernels, *args)


def _kernels(elems, at, s, xs, ys):
    # a shape's kernels, compiled afresh, against _LoopKernels
    ring, family, q = KERNEL_CONTEXTS[at]
    tset = TruncationSet.make(elems)
    ctx = witt.WittCoeffRing(ring, tset, family, q)
    kern = ctx._kernels.at(s) if ring is ZQ else ctx._kernels
    shape = witt._shape(tset)
    compiled = witt._compile_kernels(shape)(kern.W, kern.T, kern.M)
    a, b = tuple(xs[:len(tset)]), tuple(ys[:len(tset)])
    plain = witt._LoopKernels(shape, kern.W, kern.T, None)  # its ghosts are ghost vectors
    args = (tset, a, b, *_ghosts(plain.ghost, a, b, Z))
    return (compiled, *args), (witt._LoopKernels(shape, kern.W, kern.T, kern.M), *args)


# ----------------------------------------------------------------------
# Polynomials.  The fast routes are MPoly's packed keys; the reference is
# the tuple-key set: polynomials as dicts from sorted ((var, exp), ...)
# tuples to coefficients, the representation MPoly had before its keys
# were packed.  Its loops run in MPoly's order and refuse what MPoly's
# products refuse, so the terms must agree in order, and a refusal must be
# the same.


def _merge(k1, k2):
    exps = dict(k1)
    for v, e in k2:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def _accumulate(out, key, c):
    s = out.get(key, 0) + c
    if s:
        out[key] = s
    elif key in out:
        del out[key]


def _ors(a) -> dict:  # for each variable, the bitwise or of its exponents in a
    out = {}
    for key in a:
        for v, e in key:
            out[v] = out.get(v, 0) | e
    return out


def _ref_mul(a, b):
    # refused, as * refuses it, where for some variable the or of a's
    # exponents plus that of b's reaches 2^(_W-1)
    ors = _ors(b)
    if any(e + ors.get(v, 0) >> (mpoly._W - 1) for v, e in _ors(a).items()):
        raise BudgetExceeded(f"a product's exponents could reach 2^{mpoly._W - 1}")
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
    # each term's unmapped part, times the power of each mapped polynomial
    # in variable order, the terms summed as repeated addition sums them
    out = {}
    for key, c in a.items():
        term = {tuple((v, e) for v, e in key if v not in mapping): c}
        for v, e in key:
            if v in mapping:
                term = _ref_mul(term, _ref_pow(mapping[v], e))
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


def _in_order(value):
    """MPolys and tuple-key dicts as their (key, coefficient) lists, in
    order; lists of them elementwise."""
    if isinstance(value, list):
        return [_in_order(v) for v in value]
    if isinstance(value, MPoly):
        return value.terms()
    return list(value.items()) if isinstance(value, dict) else value


# many variables, so that keys span many slots; two of them with exponents
# whose sums carry within their slot.  Substitution maps only the others,
# and maps them to polynomials with large exponents too, whose powers
# (at most 9th, as a term holds up to three factors of at most a cube)
# stay below the top of a slot.
SMALL = st.sampled_from([Q] + [xvar(d) for d in (1, 2, 3, 12)] + [yvar(d) for d in (1, 2, 7)])
_LARGE = st.sampled_from([xvar(40), yvar(40)])
_FACTOR = st.one_of(
    st.tuples(SMALL, st.integers(1, 3)),
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


def _keyed(*drawn, polys=3):
    """The first ``polys`` drawn term lists as MPolys and as tuple dicts,
    the fast and the reference arguments, and the rest as drawn."""
    pairs, rest = [_both(t) for t in drawn[:polys]], drawn[polys:]
    return (*(p for p, _ in pairs), *rest), (*(a for _, a in pairs), *rest)


def _packed_key_ops(p, r, s, v, w) -> list:
    return [p, p * r, r * p, p.substitute({v: r}), p.substitute({v: r, xvar(1): s}),
            p.div_exact_var(v), p.div_exact_var(w), p.to_json(), MPoly.from_json(p.to_json()) == p]


def _tuple_key_ops(a, b, c, v, w) -> list:
    return [a, _ref_mul(a, b), _ref_mul(b, a), _ref_substitute(a, {v: b}),
            _ref_substitute(a, {v: b, xvar(1): c}), _ref_div_var(a, v), _ref_div_var(a, w),
            _ref_to_json(a), True]


# the mapped candidates carry small exponents; the large variables, never
# mapped, carry exponents up to the top of a slot, so that a product of a
# term and a mapped polynomial holding them can pass it
_MAPPED = st.sampled_from([Q, xvar(1), xvar(2), yvar(1)])
_TOPS = [1, (1 << (mpoly._W - 2)) - 1, 1 << (mpoly._W - 2), (1 << (mpoly._W - 1)) - 1]
_EXPS = st.one_of(st.tuples(_MAPPED, st.integers(1, 3)),
                  st.tuples(_LARGE, st.sampled_from(_TOPS)))


def mpolys(exps):
    """MPolys of up to five terms, each a coefficient from -3 to 3 times up
    to three (variable, exponent) pairs of exps, no variable twice."""
    monomials = st.lists(exps, max_size=3, unique_by=lambda pair: pair[0])
    return st.lists(st.tuples(st.integers(-3, 3), monomials), max_size=5).map(
        lambda terms: sum((MPoly.term(c, e) for c, e in terms), MPoly.zero()))


_POLY = mpolys(_EXPS)
POWERS = (0, 1, 2, 3, 5, 8)


def _as_tuple_keys(p, mapping):
    return (p, mapping), (dict(p.terms()), {v: dict(s.terms()) for v, s in mapping.items()})


# ----------------------------------------------------------------------
# The table

E, M = "test_engine::", "test_mpoly::"
ROWS = [
    # the packed Z[q] context against the same context over LoopZq
    Row(f"{E}test_packed_zq_rows_match_the_generic_loop", results, results,
        setup=lambda fam, picked, *xys: _zq(_over_loop_zq, picked | {1}, fam, *xys),
        count=120, inputs=st.tuples(
            st.sampled_from(range(len(ZQ_FAMILIES))), st.sets(st.integers(1, 12)),
            ZQ_COORDS, ZQ_COORDS), pins=(
            # A digit reaches |n*d| = 2^(s-1) - 1: on {1,3}, unghost of a = (1, -2)
            # has the bound A_3 = 2 + 1^3 = 3, so s = 3, and c_3 = -3/3 = -1 is a digit
            # with |3*(-1)| = 3; the ghost of b = (1, 2) is (1, 7) with s = 4.  The
            # same with monomials, and at s = 71: A_3 = 2^70 - 1 with c_3 = -(2^70-1)/3,
            # and the ghost (3, 2^70 - 1).  On {1}, try_div_int of (15,) by -3 has
            # s = 5 and the quotient digit -5.
            (0, {3}, [(1,), (-2,)] + [()] * 10, [(1,), (2,)] + [()] * 10),
            (0, {3}, [(0, 1), (0, 0, 0, -2)] + [()] * 10, [(0, 1), (0, 0, 0, 2)] + [()] * 10),
            (0, {3}, [(1,), (-(2**70) + 2,)] + [()] * 10,
             [(3,), ((2**70 - 28) // 3,)] + [()] * 10),
            (0, set(), [(15,)] + [()] * 11, [(1,)] * 12),
            # rows whose result equalled their own slot bound when Z[q] packed row by row
            (0, {2}, [(-1,), (-1,)] + [()] * 10, [(1,), (1,)] + [()] * 10),
            (0, {2}, [(-3,), (-3,)] + [()] * 10, [(3,), (3,)] + [()] * 10),
            (6, {4}, [(1, 1, 1, 1, 1)] * 12, [(-1, 1, -1, 1, -1)] * 12),
            (5, {12}, [(2**70, -(2**70))] * 12, [(0, 0, 0, 0, 1)] * 12))),
    Row(f"{E}test_integer_rows_match_the_generic_loop", results, reduced, setup=_integer,
        count=120, inputs=st.tuples(
            st.sampled_from(range(len(Z_FAMILIES))), st.sampled_from(range(len(Z_RINGS))),
            st.sets(st.integers(1, 12)), Z_COORDS, Z_COORDS), pins=(
            # on {1,3}: a = (1, -2) has the ghost (1, -1), whose row 3 leaves -2, not
            # a multiple of 3; the ghost of b = (1, 2) is (1, 7)
            (0, 0, {3}, [1, -2] + [0] * 10, [1, 2] + [0] * 10),
            (1, 3, {12}, [2**70] * 12, [-(2**70) - 9] * 12))),
    Row(f"{E}test_kernels_match_the_row_loops", results, results, setup=_kernels,
        count=200, inputs=st.tuples(
            st.sampled_from(DIVISOR_STABLE), st.sampled_from(range(len(KERNEL_CONTEXTS))),
            st.integers(2, 90), Z_COORDS, Z_COORDS), pins=(
            # the unghost of a = (1, -2) on {1,3} fails at 3 (row 3 leaves -2); a
            # ghost vector whose row 4 is odd fails at 2 first on {1,2,4}
            ((1, 3), 0, 2, [1, -2] + [0] * 10, [1, 2] + [0] * 10),
            ((1, 2, 4), 3, 2, [1, 0, 3] + [0] * 9, [0] * 12),
            (DIVISOR_STABLE[-1], 6, 90, [2**70] * 12, [-(2**70) - 9] * 12))),
    # the generated Z[q] methods against _PackedLoops, which computes the
    # same bounds and width, runs the row loops on the packed integers and
    # reads the results with _split
    Row(f"{E}test_generated_zq_ops_match_the_reference_methods", results, results,
        setup=partial(_zq, row_loops), count=200, inputs=st.tuples(
            st.sampled_from(DIVISOR_STABLE), st.sampled_from(range(len(ZQ_FAMILIES))),
            ZQ_COORDS, ZQ_COORDS, st.integers(0, 11), st.sampled_from(BUMPS)), pins=(
            ((1, 3), 0, [(1,), (-2,)] + [()] * 10, [(1,), (2,)] + [()] * 10, 1, (1, -1)),
            ((1, 2, 4), 1, [(0, 1), (1, -1), (2,)] + [()] * 9, [(1, 1)] * 12, 1, (0, 1)),
            (DIVISOR_STABLE[-1], 5, [(2**70, -(2**70))] * 12, [(0, 0, 0, 0, 1)] * 12, 9,
             (1, -1)))),
    Row(f"{M}test_packed_keys_match_tuple_keys", _packed_key_ops, _tuple_key_ops,
        setup=_keyed, seen=_in_order, count=200,
        inputs=st.tuples(_TERMS, _TERMS, _TERMS, SMALL, _LARGE)),
    # the terms in order, or the text of the BudgetExceeded that both raise
    Row(f"{M}test_substitute_matches_the_one_term_product_route",
        lambda p, mapping: outcome(BudgetExceeded, p.substitute, mapping),
        lambda a, mapping: outcome(BudgetExceeded, _ref_substitute, a, mapping),
        setup=_as_tuple_keys, seen=_in_order, count=300,
        inputs=st.tuples(_POLY, st.dictionaries(_MAPPED, _POLY, max_size=3))),
    # ** squares from the operand itself: the terms of squaring from 1
    Row(f"{M}test_pow_matches_repeated_mul",
        lambda p: [p**1 is p] + [p**e for e in POWERS],
        lambda a: [True] + [_ref_pow(a, e) for e in POWERS],
        setup=partial(_keyed, polys=1), seen=_in_order, count=100,
        inputs=st.tuples(_TERMS)),
]


# Each test folded into the table, with what it ran when it held its own
# oracle: (examples, @example pins).  Its row must run at least as many.
FOLDED = {
    f"{E}test_packed_zq_rows_match_the_generic_loop": (120, 8),
    f"{E}test_integer_rows_match_the_generic_loop": (120, 2),
    f"{E}test_kernels_match_the_row_loops": (200, 3),
    f"{E}test_generated_zq_ops_match_the_reference_methods": (200, 3),
    f"{M}test_packed_keys_match_tuple_keys": (200, 0),
    f"{M}test_substitute_matches_the_one_term_product_route": (300, 0),
    f"{M}test_pow_matches_repeated_mul": (100, 0),
}


def test_each_row_runs_at_least_what_the_test_it_replaced_ran():
    assert [row.name for row in ROWS] == list(FOLDED)
    for row in ROWS:
        count, pins = FOLDED[row.name]
        assert row.count >= count and len(row.pins) >= pins, row.name
        module, test = row.name.split("::")  # and its module runs it
        assert getattr(importlib.import_module(module), test).row is row, row.name
