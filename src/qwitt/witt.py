"""Witt vector values and arithmetic over arbitrary coefficient rings.

A context is a family tag, a truncation set S, a coefficient ring A and,
for the q-families, a binding of q in A.  Its Witt ring W_S(A) is one
object, :class:`WittCoeffRing`: the evaluation engine and a coefficient
ring in its own right, whose elements are coordinate tuples in the order
of S.  Contexts are interned, so naming one twice gives the same object,
built once; the q binding is resolved where a context is first named and
travels with it from then on.  A :class:`WittVector` is a context and a
coordinate tuple.

Addition, multiplication, negation and Frobenius take the ghost route:
apply the family's ghost map, act componentwise on the ghost side (the
product carries the family's twist), then invert the ghost map
recursively, asserting every division.  Over a ring with torsion
(``zmod``, and twisted or Witt rings built on it) the same steps run on a
torsion-free cover of the ring and each coordinate is reduced at the end.
The result is what the universal structure polynomials of
:mod:`qwitt.universal` give, because they have integer coefficients; they
are never evaluated here and stay the independent oracle of the tests.
Verschiebung is the certified coordinate shift; it, projection and section
are index maps that each context checks and builds once per target set.

Each ghost component, and each step of the inversion, is one row
acc +- sum_j w_j * x_j^e_j over the divisors of n.  The *shape* of S (per
n, its index and the pairs (index of d, n/d) of its terms) depends on S
alone; a context adds one flat tuple of weights, indexed by each term's
position in the shape, its twist and its reduction onto A.  A term whose
exponent is above ``FREE_EXPONENT`` raises BudgetExceeded, before it is
computed, when it could pass ``exprs.MAX_BITS`` bits: the kernels over Z
and Z[q] check it, and ``Ring.pow`` does in the ring loops.  Every op of a
context is one call of its *kernel* object (:class:`_Kernels`), which
holds those values and comes in three kinds:

- generated: over ``z`` and ``zmod`` (whose cover is Z) each weight is
  folded into one integer, and each op is a method of a class generated
  from the shape, every row written out as straight-line integer code
  with the divisions, and over ``zmod`` the reduction mod m, inline.  Over
  Z[q] a whole op is packed once: every input coordinate is evaluated at
  q = 2^s, the rows run on the packed integers at the weights packed too,
  and the results are unpacked, with s from 1-norm bounds on everything
  the op computes: at 8, 16, 32 or 64 bits on a little-endian host by one
  ``struct`` read of all their digits (:func:`_read`), and at any other
  width by :func:`_split`, one ``_zp_unpack`` each.  Every quotient's
  digits are checked, since the packed integer can be divisible by n when
  the polynomial is not; :class:`_PackedLoops` proves that the checks
  catch exactly those cases.
  Each method of a shape's classes is generated and compiled on its first
  use, once per process, so a process compiles only the ops it runs;
- integer loops: a set whose rows have more than ``KERNEL_MAX_TERMS``
  terms in all is not compiled, and the same ops run through
  ``_int_ghost`` and ``_int_invert`` (:class:`_LoopKernels`, and
  :class:`_PackedLoops` over Z[q]), which are also the reference the
  generated kernels are tested against;
- ring loops: over any other cover (``dual``, twisted and Witt rings) each
  weight is the ring map it acts by, and :class:`_RingKernels` runs the
  rows through ``_ghost`` and ``_invert`` with ring operations.

Because W_S(A) is a ring, it serves as the coefficient ring of another
Witt ring; that is what the nesting isomorphism consumes.
"""

from __future__ import annotations

import itertools
import operator
import struct
import sys
from functools import lru_cache, partial
from threading import Lock

from .errors import (
    BudgetExceeded,
    CrossRingError,
    NotInGhostImage,
    UnsupportedRingOperation,
)
from .exprs import FREE_EXPONENT
from .mpoly import MPoly
from .report import FrozenRecord
from .rings import Ring, ZRing, ZqRing, ZP_Q, _zp_pack, _zp_unpack, bounded_int_pow, zp_add
from .truncset import TruncationSet, divisors
from .universal import Family


class WittVector(FrozenRecord):
    __slots__ = ("context", "coords")

    def __init__(self, context: "WittCoeffRing", coords: tuple):  # one coordinate per n in S
        _set_context(self, context)
        _set_coords(self, coords)

    @property
    def family(self) -> Family:
        return self.context.family

    @property
    def tset(self) -> TruncationSet:
        return self.context.tset

    @property
    def ring(self) -> Ring:
        """The coefficient ring A."""
        return self.context.base

    @property
    def qval(self):
        return self.context.qval

    def coord(self, n: int):
        return self.coords[self.context.tset.index(n)]

    def __repr__(self):
        body = ", ".join(self.ring.to_str(c) for c in self.coords)
        return f"W[{self.family.label()};{self.tset}]({body})"


_set_context = WittVector.context.__set__
_set_coords = WittVector.coords.__set__


def resolve_q(family: Family, ring: Ring, q=None):
    """Normalize the q binding for a (family, ring) pair.

    Families without a free parameter take no binding.  Over the
    polynomial ring the binding defaults to the generator; elsewhere an
    explicit ring element is required.  An integer names that element
    where the ring's elements are integers (``z``, ``zmod`` and their
    twists) and k times the unit otherwise, so resolving a resolved
    binding changes nothing.
    """
    if not family.uses_q():
        if q is not None:
            raise CrossRingError(f"family {family.label()} takes no q binding")
        return None
    if q is None:
        if isinstance(ring, ZqRing):
            return ZP_Q
        raise CrossRingError(
            f"family {family.label()} over {ring.descriptor} needs an explicit q"
        )
    if isinstance(q, int):
        try:
            return ring.check(q)
        except ValueError:
            return ring.from_int(q)
    return ring.check(q)


def make(family: Family, tset: TruncationSet, ring: Ring, coords, q=None) -> WittVector:
    coords = tuple(ring.check(c) for c in coords)
    if len(coords) != len(tset):
        raise CrossRingError(
            f"expected {len(tset)} coordinates for {tset}, got {len(coords)}"
        )
    return WittVector(WittCoeffRing(ring, tset, family, q), coords)


def zero(family: Family, tset: TruncationSet, ring: Ring, q=None) -> WittVector:
    return make(family, tset, ring, [ring.zero()] * len(tset), q)


def teichmuller(family: Family, tset: TruncationSet, ring: Ring, c, q=None) -> WittVector:
    """The multiplicative lift (c, 0, ..., 0)."""
    coords = [ring.check(c)] + [ring.zero()] * (len(tset) - 1)
    return make(family, tset, ring, coords, q)


def random_vector(family, tset, ring, rng, q=None) -> WittVector:
    ctx = WittCoeffRing(ring, tset, family, q)
    return WittVector(ctx, ctx.random(rng))


# ----------------------------------------------------------------------
# The evaluation engine: the rows of a shape and their weights.  Every row
# loop below reads the rows of :func:`_positioned` and one flat tuple W of
# weights, indexed by position.


def _weight(ring: Ring, poly: MPoly, qval) -> tuple:
    """p(q) for a polynomial p in q alone, as a weight (c, u): the map
    x -> c*x + u*x, u None when p is constant.

    Only the Z-action and the product of the ring are used, so the weight
    exists in non-unital rings too.
    """
    c0, w = 0, None  # the constant term, and the rest of p(q) in the ring
    for key, c in poly.terms():
        if not key:
            c0 = c
            continue
        term = ring.int_scale(c, ring.pow(qval, key[0][1]))
        w = term if w is None else ring.add(w, term)
    if w is not None and c0 and ring.unital:  # fold the constant in: one product per use
        w, c0 = ring.add(w, ring.from_int(c0)), 0
    return c0, w


def _scaler(ring: Ring, weight: tuple):
    """The map x -> c*x + u*x of a weight (c, u); None when it is the identity."""
    c, u = weight
    if u is None:
        return None if c == 1 else partial(ring.int_scale, c)
    if not c:
        return partial(ring.mul, u)
    add, mul, scale = ring.add, ring.mul, ring.int_scale
    return lambda x: add(scale(c, x), mul(u, x))


def _shape(tset: TruncationSet) -> tuple:
    """Per n in S: its index, n, and the pairs (index of d, n/d) of the
    off-diagonal ghost terms w(n,d) * a_d^(n/d), d | n, d < n.

    The diagonal weight w(n,n) is n in every family, so the ghost is n*a_n
    plus the terms, and the inverse peels them off and divides by n.  The
    shape depends on S alone; the family, ring and q give the weights.
    """
    return tuple(
        (i, n, tuple((tset.index(d), n // d) for d in divisors(n)[:-1]))
        for i, n in enumerate(tset)
    )


# A term of row n has about n times the bits of the op's inputs, which the
# command line holds to INPUT_BITS.  So up to FREE_EXPONENT, which every set
# up to {1,...,32} keeps to, a term of a command-line input stays within
# MAX_BITS; a term of a larger exponent e checks e * bits(x) first
# (:func:`bounded_int_pow` over Z and Z[q], ``Ring.pow`` in the ring loops).


class _CheckedExponent(int):
    """An exponent e above FREE_EXPONENT in the rows of :func:`_positioned`:
    ``x ** e`` of an integer x calls :func:`bounded_int_pow`, as Python
    tries a subclass's reflected method first.  So the row loops over Z
    and Z[q] check the terms that need it where they compute them, and
    the others, plain ints, cost nothing more."""

    __slots__ = ()

    def __rpow__(self, x):
        return bounded_int_pow(x, int(self))


def _positioned(shape) -> list:
    """The rows of a shape with each term's position p in the flat weights,
    and each exponent above FREE_EXPONENT a :class:`_CheckedExponent`."""
    at = itertools.count()
    return [(i, n, [(j, e if e <= FREE_EXPONENT else _CheckedExponent(e), next(at))
                    for j, e in terms]) for i, n, terms in shape]


def _weights(family: Family, shape: tuple, ring: Ring, qval) -> tuple:
    """The flat weights (c, u) in ``ring`` of a shape's terms, by position."""
    return tuple(_weight(ring, family.ghost_weight(n, n // e), qval)
                 for _, n, terms in shape for _, e in terms)


def _frob_rows(rows, m: int) -> tuple:
    """For F_m: the rows of S at m*v, and the rows of S/m, for v in S/m.
    A row of S/m has the weights of the row of S at v and the indices of
    S/m."""
    ns = [n for _, n, _ in rows]
    quot = [n // m for n in ns if n % m == 0]
    into = {v: k for k, v in enumerate(quot)}
    return ([rows[ns.index(m * v)] for v in quot],
            [(k, v, [(into[ns[j]], e, p) for j, e, p in rows[ns.index(v)][2]])
             for k, v in enumerate(quot)])


def _ghost(ring: Ring, rows, W, xs) -> list:
    """The ghost components n*x_n + sum W[p](x_d^(n/d)) with the weights W
    as ring maps (None the identity)."""
    add, pow_, scale = ring.add, ring.pow, ring.int_scale
    out = []
    for i, n, terms in rows:
        g = xs[i] if n == 1 else scale(n, xs[i])
        for j, e, p in terms:
            t, w = xs[j] if e == 1 else pow_(xs[j], e), W[p]
            g = add(g, t if w is None else w(t))
        out.append(g)
    return out


def _invert(ring: Ring, rows, W, gs, cs: list) -> list:
    """Appends to ``cs`` the coordinates c_n = (g_n - sum W[p](c_d^(n/d))) / n
    in the order of the rows; NotInGhostImage at the first n whose division
    fails."""
    sub, pow_, div = ring.sub, ring.pow, ring.try_div_int
    for g, (_, n, terms) in zip(gs, rows):
        for j, e, p in terms:
            t, w = cs[j] if e == 1 else pow_(cs[j], e), W[p]
            g = sub(g, t if w is None else w(t))
        if n > 1:
            g = div(g, n)
            if g is None:
                raise _unreachable(n)
        cs.append(g)
    return cs


def _unreachable(n: int) -> NotInGhostImage:
    return NotInGhostImage(f"component {n} is not reachable: division by {n} failed")


def _fold(weight) -> int:
    """The integer c + u of a weight (c, u) over Z."""
    return weight[0] + (weight[1] or 0)


def _int_ghost(rows, W, xs) -> list:
    """:func:`_ghost` at integer weights, with no call per row or term."""
    out = []
    for i, n, terms in rows:
        g = n * xs[i]
        for j, e, p in terms:
            g += W[p] * xs[j] ** e
        out.append(g)
    return out


def _int_invert(rows, W, gs, cs: list) -> list:
    """:func:`_invert` at integer weights, with ``divmod`` inline."""
    for g, (_, n, terms) in zip(gs, rows):
        for j, e, p in terms:
            g -= W[p] * cs[j] ** e
        if n > 1:
            g, r = divmod(g, n)
            if r:
                raise _unreachable(n)
        cs.append(g)
    return cs


# ----------------------------------------------------------------------
# Kernels: one protocol, :class:`_Kernels`, and its three kinds (generated,
# integer loops, ring loops; see the module docstring).

# The most off-diagonal terms a shape may have and still be compiled; a
# larger set runs the row loops.  A method compiles on its first use, so a
# one-shot op pays for the methods it runs, not for the shape.  Measured on
# a shared 2-CPU Xeon, Python 3.11 (medians of 5; the table is in
# CHANGES.md), from {1,...,12} (23 terms) to {1,...,20} (46): the five ops
# a context binds and one F_m compile in 4-9 ms over Z and 11-29 ms over
# Z[q], where a whole shape took 38-94 ms.  Over Z the kernels take half
# off an op at every one of these sizes, which repays the compile after a
# few hundred ops; over Z[q] they save about a tenth, within the runs'
# noise.  So raising the cap would cost a one-shot op on {1,...,16} to
# {1,...,20} its compile and give only long runs over Z their gain; it
# stays where it was.
KERNEL_MAX_TERMS = 32


class _Kernels:
    """The ops of one context on coordinate tuples, at the flat weights W,
    the twist T and the reduction M onto the ring (None: none):
    ``ghost``, ``unghost``, ``add``, ``mul`` and ``neg``, and F_m as
    ``frob(m)``.  Over Z, W and T are integers and M the modulus."""

    __slots__ = ("W", "T", "M")

    def __init__(self, W, T, M):
        self.W, self.T, self.M = W, T, M

    def frob(self, m: int):
        return getattr(self, f"frob{m}")


class _RingKernels(_Kernels):
    """The ops of a context over any cover but Z and Z[q], run by
    :func:`_ghost` and :func:`_invert` with the operations of ``ring``: W
    are the weights and T the twist as the ring maps they act by (None:
    the identity), and M is the cover's reduction onto the ring."""

    __slots__ = ("ring", "rows")

    def __init__(self, shape, ring: Ring, W, T, M):
        super().__init__(W, T, M)
        self.ring, self.rows = ring, _positioned(shape)

    def _done(self, cs) -> tuple:
        return tuple(cs) if self.M is None else tuple(map(self.M, cs))

    def ghost(self, a):
        return self._done(_ghost(self.ring, self.rows, self.W, a))

    def unghost(self, gs):
        return self._done(_invert(self.ring, self.rows, self.W, gs, []))

    def add(self, a, b):
        ring, rows, W = self.ring, self.rows, self.W
        return self.unghost(map(ring.add, _ghost(ring, rows, W, a), _ghost(ring, rows, W, b)))

    def mul(self, a, b):
        ring, rows, W = self.ring, self.rows, self.W
        gs = map(ring.mul, _ghost(ring, rows, W, a), _ghost(ring, rows, W, b))
        return self.unghost(gs if self.T is None else map(self.T, gs))

    def neg(self, a):
        return self.unghost(map(self.ring.neg, _ghost(self.ring, self.rows, self.W, a)))

    def frob(self, m: int):
        (at, sub), ring, W = _frob_rows(self.rows, m), self.ring, self.W
        return lambda a: self._done(_invert(ring, sub, W, _ghost(ring, at, W, a), []))


class _LoopKernels(_Kernels):
    """A shape's kernels run by :func:`_int_ghost` and :func:`_int_invert`:
    the path above KERNEL_MAX_TERMS, and the reference that the generated
    kernels are tested against."""

    __slots__ = ("rows",)

    def __init__(self, shape, W, T, M):
        super().__init__(W, T, M)
        self.rows = _positioned(shape)

    def _done(self, cs) -> tuple:
        M = self.M
        return tuple(cs) if M is None else tuple(c % M for c in cs)

    def ghost(self, a):
        return self._done(_int_ghost(self.rows, self.W, a))

    def unghost(self, gs):
        return self._done(_int_invert(self.rows, self.W, gs, []))

    def add(self, a, b):
        rows, W = self.rows, self.W
        return self.unghost(map(operator.add, _int_ghost(rows, W, a), _int_ghost(rows, W, b)))

    def mul(self, a, b):
        rows, W, T = self.rows, self.W, self.T
        gs = zip(_int_ghost(rows, W, a), _int_ghost(rows, W, b))
        return self.unghost([T * x * y for x, y in gs])

    def neg(self, a):
        return self.unghost(map(operator.neg, _int_ghost(self.rows, self.W, a)))

    def frob(self, m: int):
        (at, sub), W = _frob_rows(self.rows, m), self.W
        return lambda a: self._done(_int_invert(sub, W, _int_ghost(at, W, a), []))


class _PackedLoops(_LoopKernels):
    """The ops of a context over Z[q], each packed once, run by the row
    loops: the path above KERNEL_MAX_TERMS, and the reference that the
    generated methods (class ``Packed`` of :func:`_kernel_source`) are
    tested against.  W and T are the 1-norms of the weights and of the
    twist, so the rows at them give the bounds below; ``at(s)`` gives the
    :class:`_Kernels` whose W and T are the weights and twist packed at
    q = 2^s.

    An op packs its inputs once at q = 2^s, a ring homomorphism
    Z[q] -> Z, runs the rows of S at the packed weights and unpacks the
    results with :func:`_split`.  The slot width comes from 1-norm bounds:
    ||g_n||_1 <= G_n = n*||x_n||_1 + sum ||w||_1 * ||x_d||_1^(n/d) for the
    ghost, combined as the op combines ghosts (G_a + G_b for add,
    ||twist||_1 * G_a * G_b for mul, the rows at m*v for F_m), and in the
    inversion ||acc_n||_1 <= A_n = G_n + sum ||w||_1 * C_d^(n/d), with
    C_d = A_d // d >= ||c_d||_1.  The width is s = max C_n.bit_length() +
    1 + j, j = max(S).bit_length().  Then A_n < n*(C_n + 1) <=
    n*2^bitlen(C_n) < 2^(s-1), as n < 2^j, so every coefficient of acc_n
    is below 2^(s-1) in size, and the balanced base-2^s digits of the
    packed acc_n are its coefficients, because such expansions are unique.
    The ghost, which divides nothing, takes s = max G_n.bit_length() + 2,
    keeping its digits below 2^(s-2) in size, as :func:`_read` needs.  Up
    to 64 bits s is rounded up to 8, 16, 32 or 64, as the generated
    methods round it.  _split needs no rounding, but the packed sizes, and
    so where the size checks of powers raise BudgetExceeded, depend on s.

    The packed acc_n can be divisible by n when acc_n is not (1 - q packs
    to -255 at s = 8, a multiple of 3, 5 and 17), so each digit d of each
    quotient is checked: |n*d| < 2^(s-1).  If n divides acc_n, the
    quotient packs acc_n / n and each n*d is a coefficient of acc_n, so
    the check passes.  If the check passes, the n*d are balanced digits of
    the packed acc_n, hence its coefficients, so n divides acc_n.  The
    first n where the division or the check fails is thus the first where
    the coefficientwise division fails, and NotInGhostImage names it, as
    over any other ring.  Where the packed division of row n fails, the
    quotients before it are checked first (:func:`_failed` in the
    generated methods), since one of them may be the first to fail
    coefficientwise.
    """

    __slots__ = ("at",)

    def ghost(self, x):
        return self._run(lambda k, x: _int_ghost(self.rows, k.W, x), None, x)

    def unghost(self, g):
        return self._run(lambda k, g: g, self.rows, tuple(g))

    def add(self, a, b):
        rows = self.rows
        return self._run(lambda k, a, b: map(operator.add, _int_ghost(rows, k.W, a),
                                             _int_ghost(rows, k.W, b)), rows, a, b)

    def mul(self, a, b):
        rows = self.rows
        return self._run(lambda k, a, b: [k.T * x * y for x, y in zip(
            _int_ghost(rows, k.W, a), _int_ghost(rows, k.W, b))], rows, a, b)

    def neg(self, a):
        rows = self.rows
        return self._run(lambda k, a: map(operator.neg, _int_ghost(rows, k.W, a)), rows, a)

    def frob(self, m: int):
        at, sub = _frob_rows(self.rows, m)
        return partial(self._run, lambda k, x: _int_ghost(at, k.W, x), sub)

    def _run(self, ghosts, sub, *xs) -> tuple:
        """The op whose ghost components are ghosts(k, *xs) at the weights
        and twist of kernels k and inputs xs over Z, inverted at the rows
        sub (None: the ghost, which inverts nothing): the bounds at the
        1-norms, the width, the packed inputs, the rows and the split."""
        # the ghosts at the 1-norms, made nonnegative where neg negates them
        bounds = map(abs, ghosts(self, *([sum(map(abs, c)) for c in x] for x in xs)))
        if sub is None:
            top, slack, ns = max(bounds), 1, None
        else:
            C, W = [], self.W
            for g, (_, n, terms) in zip(bounds, sub):
                for j, e, p in terms:
                    g += W[p] * C[j] ** e
                C.append(g // n)
            top, slack, ns = max(C), self.rows[-1][1].bit_length(), tuple(n for _, n, _ in sub)
        s = top.bit_length() + 1 + slack
        if s < 65:
            s = _ALIGNED[s]
        k = self.at(s)
        gs = ghosts(k, *([_zp_pack(c, s) for c in x] for x in xs))
        if sub is None:
            return _split(gs, s, None)
        cs = []
        try:
            _int_invert(sub, k.W, gs, cs)
        except NotInGhostImage:
            _split(cs, s, ns[:len(cs)])  # an earlier quotient may fail its check
            raise
        return _split(cs, s, ns)


def _power(x: str, e: int) -> str:
    if e > FREE_EXPONENT:
        return f"E({x}, {e})"
    return f"{x}*{x}" if e == 2 else f"{x}**{e}"


# The methods of every kernel class, each with its arguments' names (one
# coordinate tuple per letter), and F_m as frob<m> for each m in S.
_ARGS = {"ghost": "x", "unghost": "g", "add": "ab", "mul": "ab", "neg": "a"}


def _listed(x: str, k: int) -> str:  # "x0, x1, ..., x(k-1), "
    return "".join(f"{x}{j}, " for j in range(k))


def _read(m: int, ns) -> list:
    """The lines that end a generated Z[q] method, which read the digits
    of its results c0, ..., c(m-1) packed at q = 2^s.  With ``ns`` the c's
    are the quotients of a ghost inversion at rows ns and their digits are
    checked; without, their digits are below 2^(s-2) in size.  At any s
    without a ``struct`` format in _SIGNED they return through
    :func:`_split`, the reference the tests hold this read to.

    At 8, 16, 32 or 64 bits on a little-endian host, each c takes a block
    of c.bit_length() // s + 1 slots, its digit count when its digits are
    below 2^(s-2) in size, and the blocks are laid end to end in one
    integer z with a spare slot on top.  Adding 2^(s-1) in every slot and
    XOR-ing it back turns each digit into its s-bit two's complement, so
    one ``to_bytes`` and one ``struct`` read take all the digits.  One
    masked add checks that every digit lies in [-2^(s-1-j), 2^(s-1-j)), j
    the bit length of max(ns).  That implies the check of each n, and
    passes whenever every division is exact, as then |d| <= C_n <
    2^(s-1-j) (:class:`_PackedLoops`); only when it fails does
    :func:`_check_each` run, to name the first failing n.  A c with more
    balanced digits than its block carries its top one into the next
    block, and the top of its own block is then -2^(s-1), which fails
    every n's check, so _check_each names the same n as on whole
    expansions."""
    last, j = f"e{m - 1}", 1 if ns is None else ns[-1].bit_length()
    lines = ["code = R.get(s)",
             f"if code is None: return S(({_listed('c', m)}), s, {ns})",
             "e0 = c0.bit_length() // s + 1"]
    lines += [f"e{k} = e{k - 1} + c{k}.bit_length() // s + 1" for k in range(1, m)]
    lines += ["z = c0" + "".join(f" + (c{k} << s*e{k - 1})" for k in range(1, m)),
              f"bias, low, outside = B(s, {last} + 1, {j})",
              f"d = D({last}, code)(((z + bias) ^ bias).to_bytes(({last} + 1)*s >> 3, "
              "'little'))",
              "out = (" + "".join(f"d[{f'e{k - 1}' if k else ''}:e{k}] if c{k} else (), "
                                  for k in range(m)) + ")"]
    if ns is not None:
        lines.append(f"if (z + low) & outside: K(out, s, {ns})")
    return lines + ["return out"]


def _kernel_source(shape, kind: str, name: str) -> str:
    """The source of one method of one kernel class of a shape.  The
    classes are ``Plain``, the :class:`_Kernels` of a context over Z; its
    subclass ``Reduced``, whose ops reduce their results mod M; and
    ``Packed``, the whole ops of a context over Z[q] on coordinate tuples,
    :class:`_PackedLoops` written out, whose W and T are the 1-norms of the
    weights and of the twist and whose ``at(s)`` gives the kernels at the
    weights packed at q = 2^s.  ``name`` is ``ghost``, ``unghost``,
    ``add``, ``mul``, ``neg`` or ``frob<m>`` for an m in S.  The text is
    built from the shape's integers alone; the values are read from the
    objects, as the flat weights w0, w1, ... (their 1-norms v0, v1, ...),
    T and M.  A ``Packed`` method ends in the lines of :func:`_read`,
    which read its results' digits."""
    rows = _positioned(shape)
    size, count = len(rows), sum(len(t) for _, _, t in rows)

    def ghost(row, xs, w="w"):  # the ghost component of a row at the sum of the vectors xs
        def total(fmt):
            parts = [fmt(x) for x in xs]
            return parts[0] if len(parts) == 1 else "(" + " + ".join(parts) + ")"

        i, n, terms = row
        src = total(lambda x: f"{x}{i}")
        src = src if n == 1 else f"{n}*{src}"
        for j, e, p in terms:
            src += f" + {w}{p}*" + total(lambda x: _power(f"{x}{j}", e))
        return src

    def invert(rows, gs, fail):  # c0, c1, ... from the ghost components gs
        lines = []
        for (k, n, terms), g in zip(rows, gs):
            acc = g + "".join(f" - w{p}*{_power(f'c{j}', e)}" for j, e, p in terms)
            if n == 1:
                lines.append(f"c{k} = {acc}")
            else:
                lines += [f"r = {acc}", f"if r % {n}: raise {fail(k, n)}", f"c{k} = r // {n}"]
        return lines

    def bound(row, xs):  # the bound G_n on the 1-norm of a ghost component
        return ghost(row, [f"n{x}" for x in xs], "v")

    # the op: its arguments, the rows at which it takes ghost components,
    # and the rows sub it inverts them over (None: the ghost, which
    # inverts nothing)
    if name.startswith("frob"):
        (at, sub), args = _frob_rows(rows, int(name[4:])), "x"
    else:
        at, sub, args = rows, None if name == "ghost" else rows, _ARGS[name]

    def components(norms: bool) -> list:  # the ghost components, or bounds on their 1-norms
        if name == "unghost":
            return [f"ng{k}" if norms else f"g{k}" for k in range(size)]
        form = bound if norms else ghost
        if name == "mul":
            return [f"{'t' if norms else 'T'}*({form(row, 'a')})*({form(row, 'b')})" for row in at]
        if name == "neg" and not norms:
            return [f"-({ghost(row, 'a')})" for row in at]
        return [form(row, args) for row in at]

    gs, lines = components(False), []
    if kind != "Packed":
        # an op over Z: the rows at the weights, the result reduced mod M
        reduce = kind == "Reduced"
        lines += [f"{_listed('w', count)}= self.W"] if count else []
        lines += ["T = self.T"] if name == "mul" else []
        lines += ["M = self.M"] if reduce else []
        lines += [_listed(x, size) + f"= {x}" for x in args]
        if sub is None:
            lines += [f"c{k} = {g}" for k, g in enumerate(gs)]
        else:
            lines += invert(sub, gs, lambda k, n: f"U({n})")
        result = ", ".join(f"c{k} % M" if reduce else f"c{k}" for k in range(len(gs)))
        lines.append(f"return ({result},)")
    else:
        # an op over Z[q]: the 1-norms of the inputs, the ghost bounds G
        # and, inverting, the bounds A_n and C_n; the width (from G, or
        # from C); the packed inputs, the rows, and the read of the results
        bounds = components(True)
        lines += [f"{_listed('v', count)}= self.W"] if count else []
        lines += ["t = self.T"] if name == "mul" else []
        for x in args:
            lines.append(_listed(x, size) + f"= {x}")
            lines += [f"n{x}{k} = sum(map(abs, {x}{k}))" for k in range(size)]
        if sub is None:  # the ghost: no division, so no check
            lines += [f"A{k} = {bound}" for k, bound in enumerate(bounds)]
            top, slack = "A", 1
        else:
            lines += [f"A{k} = {bound}" + "".join(
                f" + v{p}*{_power(f'C{j}', e)}" for j, e, p in terms)
                + (f"; C{k} = A{k}" if n == 1 else f"; C{k} = A{k} // {n}")
                for (k, n, terms), bound in zip(sub, bounds)]
            top, slack = "C", rows[-1][1].bit_length()
        lines += [f"s = max(0, {_listed(top, len(bounds))}).bit_length() + {1 + slack}",
                  "if s < 65: s = L[s]",
                  "k = self.at(s)"]
        lines += [f"{_listed('w', count)}= k.W"] if count else []
        lines += ["T = k.T"] if name == "mul" else []
        lines += [f"{x}{k} = P({x}{k}, s)" for x in args for k in range(size)]
        if sub is None:
            lines += [f"c{k} = {g}" for k, g in enumerate(gs)]
            lines += _read(size, None)
        else:
            ns = tuple(n for _, n, _ in sub)
            lines += invert(sub, gs, lambda k, n: f"F(s, ({_listed('c', k)}), {ns[:k]}, {n})")
            lines += _read(len(sub), ns)
    return "\n".join([f"def {name}(self, {', '.join(args)}):"] + ["    " + line for line in lines])


class _Method:
    """A method of a generated kernel class before its first lookup, which
    makes its text (:func:`_kernel_source`), compiles it under
    _KERNEL_LOCK and sets the function on the class in this object's
    place, so that every later lookup is a plain method lookup.  It holds
    its class and name (set when the class is made) and the shape."""

    __slots__ = ("owner", "name", "shape")

    def __init__(self, shape):
        self.shape = shape

    def __set_name__(self, owner, name):
        self.owner, self.name = owner, name

    def __get__(self, obj, cls=None):
        with _KERNEL_LOCK:
            fn = self.owner.__dict__[self.name]
            if fn is self:  # not compiled yet
                text = _kernel_source(self.shape, self.owner.__name__, self.name)
                body = {}
                exec(compile(text, "<qwitt kernels>", "exec"), _KERNEL_GLOBALS, body)
                fn = body[self.name]
                setattr(self.owner, self.name, fn)
        return fn.__get__(obj, cls)


def _compile_kernels(shape):
    """The kernel factory of a shape: ``factory(W, T, M)`` makes a
    ``Plain`` or, with a modulus, a ``Reduced``, and ``factory.packed`` is
    class ``Packed``.  Nothing is compiled here: each method of each class
    is a :class:`_Method`, compiled by itself on its first lookup, so a
    process compiles only the methods it looks up, and compiling holds
    the syntax tree of one method, not of the shape's hundreds of
    lines."""
    names = [*_ARGS, *(f"frob{n}" for _, n, _ in shape)]

    def build(kind, base, slots=()):
        return type(kind, (base,), {"__slots__": slots, **{m: _Method(shape) for m in names}})

    plain = build("Plain", _Kernels)
    reduced = build("Reduced", plain)

    def factory(W, T, M):
        return plain(W, T, M) if M is None else reduced(W, T, M)

    factory.packed = build("Packed", _Kernels, ("at",))
    return factory


_KERNEL_CACHE: dict = {}  # shape -> its factory
_KERNEL_LOCK = Lock()


def _kernel_factory(shape):
    """``factory(W, T, M)`` for the kernels of a shape, and
    ``factory.packed`` for its Z[q] ops: made once per process, and each
    method compiled on its first lookup, up to KERNEL_MAX_TERMS terms; the
    row loops above."""
    if sum(len(terms) for _, _, terms in shape) > KERNEL_MAX_TERMS:
        factory = partial(_LoopKernels, shape)
        factory.packed = partial(_PackedLoops, shape)
        return factory
    factory = _KERNEL_CACHE.get(shape)  # a single dict read needs no lock
    if factory is None:
        with _KERNEL_LOCK:
            factory = _KERNEL_CACHE.get(shape)
            if factory is None:
                factory = _KERNEL_CACHE[shape] = _compile_kernels(shape)
    return factory


def _norm(weight) -> int:
    """||c + u||_1 of a Z[q] weight (c, u)."""
    c, u = weight
    return abs(c) if u is None else sum(map(abs, zp_add(u, (c,))))


def _packed_weight(weight, s: int) -> int:
    """A Z[q] weight (c, u) at q = 2^s."""
    return weight[0] + _zp_pack(weight[1] or (), s)


_PACKED_WIDTHS = 64  # the widths whose packed weights a Z[q] context keeps


def _packed_at(weights, twist, constant: bool):
    """``at(s)``: the :class:`_Kernels` whose W and T are the Z[q] weights
    and twist packed at q = 2^s.  A packed weight w(q)(2^s) is w at the
    packed q, the same at every s when q is ``constant``: then one set is
    kept, and otherwise the last _PACKED_WIDTHS widths'."""
    def pack(s):
        return _Kernels(tuple(_packed_weight(w, s) for w in weights),
                        _packed_weight(twist, s), None)

    if constant:
        fixed = pack(1)
        return lambda s: fixed
    return lru_cache(maxsize=_PACKED_WIDTHS)(pack)


# The slot widths of the Z[q] ops up to 64 bits: s is rounded up to 8, 16,
# 32 or 64 (_ALIGNED[s]), so that the generated methods read every slot as
# one machine integer (:func:`_read`).
_ALIGNED = (8,) * 9 + (16,) * 8 + (32,) * 16 + (64,) * 32
# the struct formats of the widths, for little-endian bytes
_SIGNED = {8: "b", 16: "h", 32: "i", 64: "q"} if sys.byteorder == "little" else {}


@lru_cache(maxsize=256)
def _biases(s: int, slots: int, j: int) -> tuple:
    """For ``slots`` slots of s bits, s a width of _SIGNED: 2^(s-1) in
    every slot, 2^(s-1-j) in every slot, and the mask of every bit outside
    the low s-j bits of each slot (a negative integer, so it holds the bits
    above the slots too), for the generated read (:func:`_read`)."""
    ones = ((1 << s * slots) - 1) // ((1 << s) - 1)  # 1 in every slot
    low = ones << (s - 1 - j)
    return ones << (s - 1), low, ~((low << 1) - ones)


@lru_cache(maxsize=256)
def _reader(k: int, code: str):
    """``unpack_from(raw, offset)`` of k little-endian machine integers of
    the struct format ``code``."""
    return struct.Struct(f"<{k}{code}").unpack_from


def _split(cs, s: int, ns) -> tuple:
    """The Z[q] elements packed at q = 2^s in the integers cs, each read
    whole by ``_zp_unpack`` (a c has at most c.bit_length() // s + 2
    balanced digits).  With ``ns`` (ascending, below 2^(s-1)) the cs are
    the quotients of a ghost inversion at rows ns, and :func:`_check_each`
    checks their digits.  The reference read of the row loops, of
    :func:`_failed`, and of the generated methods at any s that
    :func:`_read` has no ``struct`` format for."""
    out = tuple(_zp_unpack(c, s, c.bit_length() // s + 2) for c in cs)
    if ns is not None:
        _check_each(out, s, ns)
    return out


def _check_each(blocks, s: int, ns) -> None:
    """Raise NotInGhostImage at the first n of ``ns`` whose block of
    digits has a digit d with |n*d| >= 2^(s-1)."""
    half = 1 << (s - 1)
    for block, n in zip(blocks, ns):
        if n * max(map(abs, block), default=0) >= half:
            raise _unreachable(n)


def _failed(s: int, cs, ns, n: int) -> NotInGhostImage:
    """The error of a generated Z[q] op whose packed row n did not divide,
    after the quotients cs of the rows ns before it: the first of those
    whose digits fail the check is named instead."""
    _split(cs, s, ns)
    return _unreachable(n)


# the names the generated methods read besides their arguments
_KERNEL_GLOBALS = {"U": _unreachable, "L": _ALIGNED, "P": _zp_pack, "S": _split,
                   "F": _failed, "E": bounded_int_pow, "R": _SIGNED, "B": _biases,
                   "D": _reader, "K": _check_each}


class WittCoeffRing(Ring):
    """W_S(A) of one (family, S, A, q) context: the engine and the ring.

    ``WittCoeffRing(base, tset, family, q)`` resolves the q binding and
    returns the interned context.  Elements are coordinate tuples in the
    order of S; the engine ops (``ghost``, ``unghost``, ``frobenius``)
    take and return them too.  Exact integer division is solved through
    the ghost map (divide the ghost, invert back), which is what the
    nesting isomorphism needs.  No method here runs a row: ``add``,
    ``mul``, ``neg``, ``ghost`` and ``unghost`` are the ops of the
    context's kernel object, bound when it is built, and F_m is the
    kernel's ``frob(m)`` (generated kernels over Z and Z[q], the integer
    loops above KERNEL_MAX_TERMS, the ring loops over any other cover).
    """

    def __new__(cls, base: Ring, tset: TruncationSet,
                family: Family = Family.classical(), q=None):
        return _law(family, tset, base, resolve_q(family, base, q))

    def _setup(self, family: Family, tset: TruncationSet, base: Ring, qval) -> None:
        self.family, self.tset, self.base, self.qval = family, tset, base, qval
        label = ""
        if family.tag != "classical":
            bound = "" if qval is None else f"(q={base.to_str(qval)})"
            label = f"{family.label()}{bound}@"
        self.descriptor = f"witt:{label}{base.descriptor}:{tset}"
        self.torsion_free = base.torsion_free
        self.finite = base.finite
        self.supports_div_int = base.torsion_free and base.supports_div_int
        self.unital = base.unital and family.tag == "classical"
        # the torsion-free ring the engine runs in, and the reduction onto A
        self.lift, self.down = base.cover()
        shape = _shape(tset)
        weights = _weights(family, shape, self.lift, qval)
        twist = _weight(self.lift, family.twist(), qval)
        self._frobs = {}  # m -> self._frob(m)
        self._ons = {}  # the elements of a set T -> self.on(T)
        self._maps = {}  # (kind, m, the elements of T) -> a set-change map into T
        self._subgroups = {}  # (p, e) -> the coordinate tuples of p^e * W_S(A)
        if isinstance(self.lift, ZRing):
            # the kernels of S at the folded weights, each reducing mod m
            # over zmod (whose cover is Z)
            factory = _kernel_factory(shape)
            k = factory(tuple(map(_fold, weights)), _fold(twist),
                        None if self.down is None else base.m)
        elif isinstance(self.lift, ZqRing):
            # the packed ops, at the 1-norms of the weights
            factory = _kernel_factory(shape)
            k = factory.packed(tuple(map(_norm, weights)), _norm(twist), None)
            k.at = _packed_at(weights, twist, qval is None or len(qval) < 2)
        else:
            # the ring loops, each weight the ring map it acts by
            scaler = partial(_scaler, self.lift)
            k = _RingKernels(shape, self.lift, tuple(map(scaler, weights)),
                             scaler(twist), self.down)
        self._kernels = k
        # binding compiles these five generated methods, if not yet compiled;
        # F_m compiles on the first _frob(m)
        self.add, self.mul, self.neg, self.ghost, self.unghost = (
            k.add, k.mul, k.neg, k.ghost, k.unghost)

    def __reduce__(self):  # unpickled as the interned context of this process
        return _law, (self.family, self.tset, self.base, self.qval)

    def on(self, tset: TruncationSet) -> "WittCoeffRing":
        """The context with the same family, ring and q on another set."""
        ctx = self._ons.get(tset.elements)
        if ctx is None:
            ctx = self._ons[tset.elements] = _law(self.family, tset, self.base, self.qval)
        return ctx

    def _move(self, a: tuple, kind: str, into: TruncationSet, m: int = 1):
        """The context on ``into``, and the image there of the coordinate tuple
        ``a`` under a set-change map: "project" drops the coordinates outside
        ``into``, "section" zero-fills those outside S, and "versch" is V_m,
        coordinate n taken from n/m where m divides n and zero elsewhere.

        A map is the target context and, for each n in ``into``, the index
        of the coordinate of S it takes, len(S) for a zero; it is checked
        and built on first use, once per context.
        """
        key = (kind, m, into.elements)
        entry = self._maps.get(key)
        if entry is None:
            s = self.tset
            if kind == "project" and not into.is_subset(s):
                raise CrossRingError(f"{into} is not a subset of {s}")
            if kind == "section" and not s.is_subset(into):
                raise CrossRingError(f"{s} is not a subset of {into}")
            if kind == "versch" and m not in into:
                raise CrossRingError(f"{m} is not in {into}")
            if kind == "versch" and into.quotient(m) != s:
                raise CrossRingError(f"vector over {s} is not in the domain of V_{m} into {into}")
            at = {n: i for i, n in enumerate(s)}
            entry = self._maps[key] = (self.on(into), tuple(
                at.get(n // m, len(s)) if n % m == 0 else len(s) for n in into))
        ctx, index = entry
        return ctx, tuple(map((*a, self.base.zero()).__getitem__, index))

    # --- the engine ---------------------------------------------------
    # _setup binds add, mul, neg, ghost and unghost from the kernels; what
    # follows is built on them and on the kernels' frob(m).
    def _frob(self, m: int):
        """The context on S/m, and F_m on coordinate tuples."""
        entry = self._frobs.get(m)
        if entry is None:
            if m not in self.tset:
                raise CrossRingError(f"{m} is not in {self.tset}")
            sub = self.on(self.tset.quotient(m))
            entry = self._frobs[m] = (sub, self._kernels.frob(m))
        return entry

    def frobenius(self, m: int, a) -> tuple:
        return self._frob(m)[1](a)

    def try_div_int(self, a, k):
        """The unique b with k*b = a, or None: divide the ghost, then invert."""
        if not self.supports_div_int:
            raise UnsupportedRingOperation(
                f"{self.descriptor} has no exact integer division"
            )
        gs = [self.lift.try_div_int(g, k) for g in self.ghost(a)]  # A has no torsion
        if None in gs:
            return None
        try:
            return self.unghost(gs)
        except NotInGhostImage:
            return None

    def is_divisible_mod(self, a, p, e):
        """Membership in p^e * W_S(A) (not a coordinatewise condition).

        Over torsion-free rings with exact division this is decided
        through the ghost map; over small finite rings the subgroup is
        enumerated once per context.
        """
        if self.supports_div_int:
            return self.try_div_int(a, p**e) is not None
        if self.finite:
            members = self._subgroups.get((p, e))
            if members is None:
                members = {self.int_scale(p**e, w) for w in self._tuples(8192)}
                self._subgroups[(p, e)] = members
            return a in members
        raise UnsupportedRingOperation(
            f"cannot decide p-power membership over {self.base.descriptor}"
        )

    # --- the rest of the ring -----------------------------------------
    def cover(self):
        """W_S over the cover of A, with coordinatewise reduction."""
        if self.down is None:
            return self, None
        down = self.down
        lifted = _law(self.family, self.tset, self.lift, self.qval)
        return lifted, lambda a: tuple(map(down, a))

    def zero(self):
        return (self.base.zero(),) * len(self.tset)

    def one(self):
        if not self.unital:
            raise UnsupportedRingOperation(f"{self.descriptor} is not unital")
        return (self.base.one(),) + (self.base.zero(),) * (len(self.tset) - 1)

    def is_zero(self, a):
        return all(self.base.is_zero(c) for c in a)

    def bits(self, a):
        return sum(map(self.base.bits, a))

    def eq(self, a, b):
        return all(self.base.eq(x, y) for x, y in zip(a, b))

    def _tuples(self, budget: int):
        elems = list(itertools.islice(self.base.enumerate(), budget + 1))
        total = len(elems) ** len(self.tset)
        if total > budget:
            least = "at least " if len(elems) > budget else ""
            raise BudgetExceeded(f"would enumerate {least}{total} vectors (budget {budget})")
        return itertools.product(elems, repeat=len(self.tset))

    def enumerate(self):
        yield from self._tuples(65536)

    def check(self, a):
        if not isinstance(a, tuple) or len(a) != len(self.tset):
            raise ValueError(
                f"expected a {len(self.tset)}-coordinate tuple for {self.descriptor}"
            )
        return tuple(self.base.check(c) for c in a)

    def random(self, rng):
        return tuple(self.base.random(rng) for _ in self.tset)

    def to_str(self, a):
        return "(" + ", ".join(self.base.to_str(c) for c in a) + ")"

    def from_str(self, text):
        """Reads what ``to_str`` writes, ``(c_1, ..., c_k)`` with each
        coordinate in the base ring's notation; any other text is an
        expression in the ring."""
        inner = text.strip()
        if inner[:1] == "(" and inner[-1:] == ")":
            inner, parts, depth, start = inner[1:-1], [], 0, 0
            for i, ch in enumerate(inner):
                depth += (ch == "(") - (ch == ")")
                if depth < 0:
                    break  # as in "(a)*(b)": not one parenthesized tuple
                if ch == "," and depth == 0:
                    parts.append(inner[start:i])
                    start = i + 1
            else:
                parts.append(inner[start:])
                if len(parts) != len(self.tset):
                    raise ValueError(
                        f"expected {len(self.tset)} coordinates for "
                        f"{self.descriptor}, got {text!r}"
                    )
                return tuple(self.base.from_str(p) for p in parts)
        return super().from_str(text)

    def to_json(self, a):
        return indexed_to_json(a, "coords", self.tset, lambda n: self.base)

    def from_json(self, value):
        coords = indexed_from_json(value, "coords", self.tset, lambda n: self.base)
        return self.check(tuple(coords))


def _Law(family: Family, tset: TruncationSet, ring: Ring, qval) -> WittCoeffRing:
    """Build the context of a resolved (family, S, ring, q); :func:`_law`
    interns it."""
    ctx = object.__new__(WittCoeffRing)
    ctx._setup(family, tset, ring, qval)
    return ctx


_LAW_CACHE: dict = {}
_LAW_LOCK = Lock()


def _law(family: Family, tset: TruncationSet, ring: Ring, qval) -> WittCoeffRing:
    """The interned context of a resolved (family, S, ring, q)."""
    key = (family.key(), tset.elements, ring.descriptor, qval)
    law = _LAW_CACHE.get(key)  # a single dict read needs no lock
    if law is None:
        law = _Law(family, tset, ring, qval)
        with _LAW_LOCK:
            law = _LAW_CACHE.setdefault(key, law)
    return law


def _match(a: WittVector, b: WittVector):
    if a.context is not b.context and a.context != b.context:  # contexts are interned
        raise CrossRingError(f"mismatched Witt vectors: {a!r} vs {b!r}")


# ----------------------------------------------------------------------
# Arithmetic.  ``add`` and ``mul`` call ``_match`` only when the two
# contexts are not the same object.


def add(a: WittVector, b: WittVector) -> WittVector:
    ctx = a.context
    if ctx is not b.context:
        _match(a, b)
    return WittVector(ctx, ctx.add(a.coords, b.coords))


def mul(a: WittVector, b: WittVector) -> WittVector:
    ctx = a.context
    if ctx is not b.context:
        _match(a, b)
    return WittVector(ctx, ctx.mul(a.coords, b.coords))


def neg(a: WittVector) -> WittVector:
    return WittVector(a.context, a.context.neg(a.coords))


def sub(a: WittVector, b: WittVector) -> WittVector:
    return add(a, neg(b))


def int_scale(k: int, a: WittVector) -> WittVector:
    """The k-fold sum of ``a`` (Z-action on the additive group)."""
    return WittVector(a.context, a.context.int_scale(k, a.coords))


def eq(a: WittVector, b: WittVector) -> bool:
    _match(a, b)
    return a.context.eq(a.coords, b.coords)


def is_zero(a: WittVector) -> bool:
    return a.context.is_zero(a.coords)


def ghost(a: WittVector) -> tuple:
    """The ghost coordinates (sum_{d|n} w(n,d) a_d^(n/d))_n."""
    return a.context.ghost(a.coords)


def unghost(family: Family, tset: TruncationSet, ring: Ring, xs, q=None) -> WittVector:
    """The unique vector with the given ghost coordinates.

    Needs exact integer division and torsion-freeness in the ring; raises
    NotInGhostImage when some interior division fails.
    """
    if not (ring.supports_div_int and ring.torsion_free):
        raise UnsupportedRingOperation(
            f"{ring.descriptor} cannot invert the ghost map exactly"
        )
    ctx = WittCoeffRing(ring, tset, family, q)
    xs = tuple(ring.check(x) for x in xs)
    if len(xs) != len(tset):
        raise CrossRingError(f"expected {len(tset)} ghost components")
    return WittVector(ctx, ctx.unghost(xs))


def frobenius(a: WittVector, m: int) -> WittVector:
    """F_m into the quotient set S/m."""
    quot, frob = a.context._frob(m)
    return WittVector(quot, frob(a.coords))


def verschiebung(a: WittVector, m: int, into: TruncationSet) -> WittVector:
    """V_m from S/m back into S: the certified coordinate shift."""
    return WittVector(*a.context._move(a.coords, "versch", into, m))


def project(a: WittVector, sub: TruncationSet) -> WittVector:
    """Drop coordinates outside ``sub`` (a ring homomorphism)."""
    return WittVector(*a.context._move(a.coords, "project", sub))


def section(a: WittVector, into: TruncationSet) -> WittVector:
    """Zero-fill the missing coordinates (a map of sets, not rings)."""
    return WittVector(*a.context._move(a.coords, "section", into))


def map_coords(a: WittVector, fn, ring: Ring) -> WittVector:
    """Apply a coefficient-ring homomorphism coordinatewise."""
    q = fn(a.qval) if a.family.uses_q() else None
    coords = tuple(ring.check(fn(c)) for c in a.coords)
    return WittVector(WittCoeffRing(ring, a.tset, a.family, q), coords)


def is_divisible(a: WittVector, p: int, e: int = 1) -> bool:
    """Membership of ``a`` in p^e * W_S (not a coordinatewise condition)."""
    return a.context.is_divisible_mod(a.coords, p, e)


def enumerate_vectors(family, tset, ring, q=None, budget: int = 65536):
    """All Witt vectors over a finite ring (budget-capped)."""
    ctx = WittCoeffRing(ring, tset, family, q)
    for coords in ctx._tuples(budget):
        yield WittVector(ctx, coords)


def exact_sequence_check(
    tset: TruncationSet,
    p: int,
    ring: Ring,
    family: Family = Family.classical(),
    q=None,
    budget: int = 65536,
) -> bool:
    """Full-enumeration check of 0 -> W_{S/p} -> W_S -> W_{S(p)} -> 0."""
    ctx = WittCoeffRing(ring, tset, family, q)
    sub, comp = ctx.on(tset.quotient(p)), ctx.on(tset.prime_complement(p))
    image = [sub._move(w, "versch", tset, p)[1] for w in sub._tuples(budget)]
    if len(set(image)) != len(image):
        return False  # V_p not injective
    projected = {w: ctx._move(w, "project", comp.tset)[1] for w in ctx._tuples(budget)}
    kernel = {w for w, pw in projected.items() if comp.is_zero(pw)}
    return kernel == set(image) and set(projected.values()) == set(comp._tuples(budget))


# ----------------------------------------------------------------------
# JSON forms of vectors, shared with the command line.


def vector_to_json(a: WittVector) -> dict:
    return a.context.to_json(a.coords)


def indexed_to_json(xs, field: str, tset: TruncationSet, ring_at) -> dict:
    """{field: {str(n): x_n}}, each x_n, n in S, in the JSON form of ring_at(n)."""
    return {field: {str(n): ring_at(n).to_json(x) for n, x in zip(tset, xs)}}


def indexed_from_json(data, field: str, tset: TruncationSet, ring_at) -> list:
    """The elements data[field][str(n)] of the rings ring_at(n), n in S.

    Raises ValueError when a part is missing.
    """
    got = data.get(field) if isinstance(data, dict) else None
    if not isinstance(got, dict):
        raise ValueError(f"expected an object with a {field!r} field keyed by index")
    for n in tset:
        if str(n) not in got:
            raise ValueError(f"the {field!r} field is missing index {n}")
    return [ring_at(n).from_json(got[str(n)]) for n in tset]


def vector_from_json(family, tset, ring, data, q=None) -> WittVector:
    coords = indexed_from_json(data, "coords", tset, lambda n: ring)
    return make(family, tset, ring, coords, q)
