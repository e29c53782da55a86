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
Verschiebung is the certified coordinate shift.

Each ghost component, and each step of the inversion, is one row
acc +- sum_j w_j * x_j^e_j over the divisors of n.  Where the engine runs
in Z (over ``z`` and over ``zmod``, whose cover is Z) each weight is
folded into one integer when the context is built, and two module loops,
``_int_ghost`` and ``_int_invert``, run the rows with the arithmetic and
``divmod`` inline.  Over Z[q] a whole operation is packed once: every input
coordinate is evaluated at q = 2^s, the same integer loops run on rows
whose weights are packed too, and each result coordinate is unpacked
once, with s from 1-norm bounds on everything the op computes.  Every
quotient's digits are checked, since the packed integer can be divisible
by n when the polynomial is not; :class:`ZqWittRing` proves that the
check catches exactly those cases.  Over any other cover each weight is
the ring map it acts by, built once, and ``_ghost`` and ``_invert`` run
the rows with ring operations.

Because W_S(A) is a ring, it serves as the coefficient ring of another
Witt ring; that is what the nesting isomorphism consumes.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import partial
from threading import Lock

from .errors import (
    BudgetExceeded,
    CrossRingError,
    NotInGhostImage,
    UnsupportedRingOperation,
)
from .mpoly import MPoly
from .rings import Ring, ZRing, ZqRing, ZP_Q, _zp_pack, _zp_unpack, zp_add
from .truncset import TruncationSet, divisors
from .universal import Family


@dataclass(frozen=True)
class WittVector:
    context: "WittCoeffRing"
    coords: tuple

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
    return make(family, tset, ring, [ring.random(rng) for _ in tset], q)


# ----------------------------------------------------------------------
# The evaluation engine.  A context holds the ghost rows of S; a row
# serves both the ghost map and its inverse.  Every operation applies the
# ghost map, acts componentwise on the ghost side (twisted by the family's
# product twist for mul) and inverts recursively, asserting each division.
# A ring with torsion runs these steps on its torsion-free cover and
# reduces the coordinates at the end; that is valid because every
# structure polynomial has integer coefficients.


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


def _build_rows(family: Family, tset: TruncationSet, ring: Ring, qval) -> list:
    """Per n in S: its index, n, and the off-diagonal ghost terms.

    The terms w(n,d) * a_d^(n/d) for d | n, d < n, are (index of d, n/d,
    weight (c, u)), for a context to map into the form its loops take.  The
    diagonal weight w(n,n) is n in every family, so the ghost is n*a_n plus
    the terms, and the inverse peels them off and divides by n.
    """
    return [
        (i, n, [
            (tset.index(d), n // d, _weight(ring, family.ghost_weight(n, d), qval))
            for d in divisors(n)[:-1]
        ])
        for i, n in enumerate(tset)
    ]


def _ghost(ring: Ring, rows, xs) -> list:
    """The ghost components n*x_n + sum w(x_d^(n/d)) at rows whose weights
    are ring maps (None the identity)."""
    add, pow_, scale = ring.add, ring.pow, ring.int_scale
    out = []
    for i, n, terms in rows:
        g = xs[i] if n == 1 else scale(n, xs[i])
        for j, e, w in terms:
            t = xs[j] if e == 1 else pow_(xs[j], e)
            g = add(g, t if w is None else w(t))
        out.append(g)
    return out


def _invert(ring: Ring, rows, gs, cs: list) -> list:
    """Appends to ``cs`` the coordinates c_n = (g_n - sum w(c_d^(n/d))) / n
    in the order of the rows; NotInGhostImage at the first n whose division
    fails."""
    sub, pow_, div = ring.sub, ring.pow, ring.try_div_int
    for g, (_, n, terms) in zip(gs, rows):
        for j, e, w in terms:
            t = cs[j] if e == 1 else pow_(cs[j], e)
            g = sub(g, t if w is None else w(t))
        if n > 1:
            g = div(g, n)
            if g is None:
                raise _unreachable(n)
        cs.append(g)
    return cs


def _unreachable(n: int) -> NotInGhostImage:
    return NotInGhostImage(f"component {n} is not reachable: division by {n} failed")


def _map_weights(rows, fn) -> list:
    """``rows`` with each weight w replaced by fn(w)."""
    return [(i, n, tuple((j, e, fn(w)) for j, e, w in terms)) for i, n, terms in rows]


def _fold(weight) -> int:
    """The integer c + u of a weight (c, u) over Z."""
    return weight[0] + (weight[1] or 0)


def _int_ghost(rows, xs) -> list:
    """:func:`_ghost` at integer rows, with no call per row or term."""
    out = []
    for i, n, terms in rows:
        g = n * xs[i]
        for j, e, w in terms:
            g += w * xs[j] ** e
        out.append(g)
    return out


def _int_invert(rows, gs, cs: list) -> list:
    """:func:`_invert` at integer rows, with ``divmod`` inline."""
    for g, (_, n, terms) in zip(gs, rows):
        for j, e, w in terms:
            g -= w * cs[j] ** e
        if n > 1:
            g, r = divmod(g, n)
            if r:
                raise _unreachable(n)
        cs.append(g)
    return cs


def _norm(weight) -> int:
    """||c + u||_1 of a Z[q] weight (c, u)."""
    c, u = weight
    return abs(c) if u is None else sum(map(abs, zp_add(u, (c,))))


def _digits(x: int, s: int) -> tuple:
    """All balanced base-2^s digits of x, lowest first: the Z[q] element
    that x packs when its coefficients are below 2^(s-1) in size."""
    return _zp_unpack(x, s, x.bit_length() // s + 1)


_PACKED_WIDTHS = 64  # the packed q values whose rows a Z[q] context keeps


class WittCoeffRing(Ring):
    """W_S(A) of one (family, S, A, q) context: the engine and the ring.

    ``WittCoeffRing(base, tset, family, q)`` resolves the q binding and
    returns the interned context.  Elements are coordinate tuples in the
    order of S; the engine methods (``ghost``, ``unghost``, ``frobenius``)
    take and return them too.  Exact integer division is solved through
    the ghost map (divide the ghost, invert back), which is what the
    nesting isomorphism needs.  Over Z[q] the context is a
    :class:`ZqWittRing`.
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
        self.rows = _build_rows(family, tset, self.lift, qval)
        self._twist = _weight(self.lift, family.twist(), qval)
        self.twist = _scaler(self.lift, self._twist)
        # the row form and the loops that run it: integers over Z, ring maps
        # on other covers; ZqWittRing packs the (c, u) weights at each width
        if isinstance(self.lift, ZRing):
            self.rows = _map_weights(self.rows, _fold)
            self._ghosts, self._inverse = _int_ghost, _int_invert
        elif not isinstance(self.lift, ZqRing):
            self.rows = _map_weights(self.rows, partial(_scaler, self.lift))
            self._ghosts, self._inverse = partial(_ghost, self.lift), partial(_invert, self.lift)
        self._frobs = {}  # m -> self._frob(m)
        self._subgroups = {}  # (p, e) -> the coordinate tuples of p^e * W_S(A)

    def on(self, tset: TruncationSet) -> "WittCoeffRing":
        """The context with the same family, ring and q on another set."""
        return _law(self.family, tset, self.base, self.qval)

    # --- the engine ---------------------------------------------------
    def unghost(self, gs) -> tuple:
        """The coordinates whose ghost components are ``gs``; raises
        NotInGhostImage when an interior division fails."""
        return self._reduced(self._inverse(self.rows, gs, []))

    def _reduced(self, values) -> tuple:
        return tuple(map(self.down, values)) if self.down else tuple(values)

    def add(self, a, b) -> tuple:
        ghosts, rows = self._ghosts, self.rows
        return self.unghost(map(self.lift.add, ghosts(rows, a), ghosts(rows, b)))

    def mul(self, a, b) -> tuple:
        ghosts, rows = self._ghosts, self.rows
        gs = map(self.lift.mul, ghosts(rows, a), ghosts(rows, b))
        if self.twist is not None:
            gs = map(self.twist, gs)
        return self.unghost(gs)

    def neg(self, a) -> tuple:
        return self.unghost(map(self.lift.neg, self._ghosts(self.rows, a)))

    def _frob(self, m: int):
        """The context on S/m, and the ghost rows of S at m*v for v in S/m."""
        entry = self._frobs.get(m)
        if entry is None:
            sub = self.on(self.tset.quotient(m))
            rows = [self.rows[self.tset.index(m * v)] for v in sub.tset]
            entry = self._frobs[m] = (sub, rows)
        return entry

    def frobenius(self, m: int, a) -> tuple:
        """F_m: ghost component m*v of S becomes component v of S/m."""
        sub, rows = self._frob(m)
        return sub.unghost(self._ghosts(rows, a))

    def ghost(self, a) -> tuple:
        return self._reduced(self._ghosts(self.rows, a))

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

    def eq(self, a, b):
        return all(self.base.eq(x, y) for x, y in zip(a, b))

    def _tuples(self, budget: int):
        elems = list(self.base.enumerate())
        total = len(elems) ** len(self.tset)
        if total > budget:
            raise BudgetExceeded(f"would enumerate {total} vectors (budget {budget})")
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
        return {
            "coords": {str(n): self.base.to_json(c) for n, c in zip(self.tset, a)}
        }

    def from_json(self, value):
        coords = indexed_from_json(value, "coords", self.tset, lambda n: self.base)
        return self.check(tuple(coords))


class ZqWittRing(WittCoeffRing):
    """W_S(Z[q]), with each op packed once.

    An op packs its inputs once at q = 2^s, a ring homomorphism
    Z[q] -> Z, runs the integer row loops on rows packed at the same q and
    unpacks each result coordinate once.  The slot width comes from 1-norm
    bounds: ||g_n||_1 <= G_n = n*||x_n||_1 + sum ||w||_1 * ||x_d||_1^(n/d)
    for the ghost, combined as the op combines ghosts (G_a + G_b for add,
    ||twist||_1 * G_a * G_b for mul, the rows at m*v for F_m), and in the
    inversion ||acc_n||_1 <= A_n = G_n + sum ||w||_1 * C_d^(n/d), with
    C_d = A_d // d >= ||c_d||_1.  s = max A_n.bit_length() + 1 puts every
    coefficient of acc_n below 2^(s-1) in size, so the balanced base-2^s
    digits of the packed acc_n are its coefficients, because such
    expansions are unique.

    The packed acc_n can be divisible by n when acc_n is not (1 - q packs
    to -15 at s = 4), so each digit d of each quotient is checked:
    |n*d| < 2^(s-1).  If n divides acc_n, the quotient packs acc_n / n and
    each n*d is a coefficient of acc_n, so the check passes.  If the check
    passes, the n*d are balanced digits of the packed acc_n, hence its
    coefficients, so n divides acc_n.  The first n where the division or
    the check fails is thus the first where the coefficientwise division
    fails, and NotInGhostImage names it, as over any other ring.
    """

    def _setup(self, family: Family, tset: TruncationSet, base: Ring, qval) -> None:
        super()._setup(family, tset, base, qval)
        # the 1-norms of the weights, for the slot widths
        self._norm_rows = _map_weights(self.rows, _norm)
        self._twist_norm = _norm(self._twist)
        self._packed = {}  # the packed q -> self._at(s)

    def unghost(self, gs) -> tuple:
        gs = list(gs)
        s = self._width([sum(map(abs, g)) for g in gs])
        return self._inverted([_zp_pack(g, s) for g in gs], s)

    def add(self, a, b) -> tuple:
        s = self._width(list(map(operator.add, self._bound(a), self._bound(b))))
        rows = self._at(s)[0]
        return self._inverted(
            map(operator.add, self._ghost_at(a, rows, s), self._ghost_at(b, rows, s)), s)

    def mul(self, a, b) -> tuple:
        t = self._twist_norm
        s = self._width([t * x * y for x, y in zip(self._bound(a), self._bound(b))])
        rows, t = self._at(s)
        gs = zip(self._ghost_at(a, rows, s), self._ghost_at(b, rows, s))
        return self._inverted([t * x * y for x, y in gs], s)

    def neg(self, a) -> tuple:
        s = self._width(self._bound(a))
        return self._inverted(map(operator.neg, self._ghost_at(a, self._at(s)[0], s)), s)

    def frobenius(self, m: int, a) -> tuple:
        sub, rows = self._frob(m)
        s = sub._width(self._bound(a, rows))
        packed = self._at(s)[0]
        return sub._inverted(self._ghost_at(a, [packed[i] for i, _, _ in rows], s), s)

    def ghost(self, a) -> tuple:
        s = max(self._bound(a), default=0).bit_length() + 1
        return tuple(_digits(g, s) for g in self._ghost_at(a, self._at(s)[0], s))

    def _bound(self, a, rows=None) -> list:
        """The bounds G_n on the 1-norms of a's ghost components, at the
        given rows of S (all by default)."""
        norm_rows = self._norm_rows
        if rows is not None:
            norm_rows = [norm_rows[i] for i, _, _ in rows]
        return _int_ghost(norm_rows, [sum(map(abs, x)) for x in a])

    def _width(self, bounds) -> int:
        """The slot width s = max A_n.bit_length() + 1 for inverting ghost
        components whose 1-norms are at most ``bounds``."""
        top, cs = 0, []
        for g, (_, n, terms) in zip(bounds, self._norm_rows):
            for j, e, w in terms:
                g += w * cs[j] ** e
            if g > top:
                top = g
            cs.append(g // n)
        return top.bit_length() + 1

    def _at(self, s: int):
        """The integer rows and the twist factor packed at q = 2^s.  A packed
        weight w(q)(2^s) is w at the packed q, so the packed q keys them."""
        q = None if self.qval is None else _zp_pack(self.qval, s)
        got = self._packed.get(q)
        if got is None:
            if len(self._packed) >= _PACKED_WIDTHS:
                self._packed.clear()

            def pack(weight):
                return weight[0] + _zp_pack(weight[1] or (), s)

            got = self._packed[q] = (_map_weights(self.rows, pack), pack(self._twist))
        return got

    def _ghost_at(self, a, rows, s: int) -> list:
        """The ghost components of ``a`` packed at q = 2^s, at packed rows."""
        return _int_ghost(rows, [_zp_pack(x, s) for x in a])

    def _inverted(self, gs, s: int) -> tuple:
        """Invert packed ghost components at slot width s and unpack each
        coordinate once, checking its digits.  NotInGhostImage names the
        first n where the integer division or the check fails."""
        cs, failed = [], None
        try:
            _int_invert(self._at(s)[0], gs, cs)
        except NotInGhostImage as exc:
            failed = exc
        out, half = [], 1 << (s - 1)
        for c, (_, n, _) in zip(cs, self.rows):
            c = _digits(c, s)
            if n * max(map(abs, c), default=0) >= half:
                raise _unreachable(n)
            out.append(c)
        if failed:
            raise failed
        return tuple(out)


def _Law(family: Family, tset: TruncationSet, ring: Ring, qval) -> WittCoeffRing:
    """Build the context of a resolved (family, S, ring, q); :func:`_law`
    interns it."""
    ctx = object.__new__(ZqWittRing if isinstance(ring, ZqRing) else WittCoeffRing)
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
# Arithmetic.


def add(a: WittVector, b: WittVector) -> WittVector:
    _match(a, b)
    return WittVector(a.context, a.context.add(a.coords, b.coords))


def mul(a: WittVector, b: WittVector) -> WittVector:
    _match(a, b)
    return WittVector(a.context, a.context.mul(a.coords, b.coords))


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
    if m not in a.tset:
        raise CrossRingError(f"{m} is not in {a.tset}")
    ctx = a.context
    return WittVector(ctx._frob(m)[0], ctx.frobenius(m, a.coords))


def verschiebung(a: WittVector, m: int, into: TruncationSet) -> WittVector:
    """V_m from S/m back into S: the certified coordinate shift."""
    if m not in into:
        raise CrossRingError(f"{m} is not in {into}")
    if into.quotient(m) != a.tset:
        raise CrossRingError(
            f"vector over {a.tset} is not in the domain of V_{m} into {into}"
        )
    z = a.ring.zero()
    coords = tuple(
        a.coord(n // m) if n % m == 0 else z for n in into
    )
    return WittVector(a.context.on(into), coords)


def project(a: WittVector, sub: TruncationSet) -> WittVector:
    """Drop coordinates outside ``sub`` (a ring homomorphism)."""
    if not sub.is_subset(a.tset):
        raise CrossRingError(f"{sub} is not a subset of {a.tset}")
    coords = tuple(a.coord(n) for n in sub)
    return WittVector(a.context.on(sub), coords)


def section(a: WittVector, into: TruncationSet) -> WittVector:
    """Zero-fill the missing coordinates (a map of sets, not rings)."""
    if not a.tset.is_subset(into):
        raise CrossRingError(f"{a.tset} is not a subset of {into}")
    z = a.ring.zero()
    coords = tuple(a.coord(n) if n in a.tset else z for n in into)
    return WittVector(a.context.on(into), coords)


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
    sub = ctx.on(tset.quotient(p))
    comp = tset.prime_complement(p)
    image = set()
    seen = 0
    for w in sub._tuples(budget):
        image.add(verschiebung(WittVector(sub, w), p, tset).coords)
        seen += 1
    if len(image) != seen:
        return False  # V_p not injective
    kernel = set()
    projected = set()
    for w in ctx._tuples(budget):
        pw = project(WittVector(ctx, w), comp)
        projected.add(pw.coords)
        if is_zero(pw):
            kernel.add(w)
    full_target = set(ctx.on(comp)._tuples(budget))
    return kernel == image and projected == full_target


# ----------------------------------------------------------------------
# JSON forms of vectors, shared with the command line.


def vector_to_json(a: WittVector) -> dict:
    return {"coords": {str(n): a.ring.to_json(c) for n, c in zip(a.tset, a.coords)}}


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
