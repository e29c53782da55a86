"""One-dimensional polynomial ring laws and the twisted-line classifier.

A law is a pair of bivariate polynomials (F, G) over a coefficient ring,
normalized by F(X, 0) = X.  Over a reduced ring the only laws are
F = X + Y, G = r*X*Y for a unique r; over non-reduced rings there are
more (the dual-number law F = X + Y + eps*X*Y is the standard example).
Axioms are verified symbolically when the coefficient ring embeds in a
polynomial ring and by seeded sampling otherwise.
"""

from __future__ import annotations

import random

from . import exprs
from .errors import BudgetExceeded, NotInNormalForm, UnsupportedRingOperation
from .report import Record, Report
from .rings import DualRing, Ring, ZqRing, ZRing

_VARS = ("x", "y", "z")
MUL_PAIRS = 1 << 20  # the most term pairs of a product; composing (x+y+1)^10 makes 276,276


class RingPoly:
    """A polynomial in x, y, z with coefficients in an arbitrary ring.

    Terms map exponent triples to nonzero ring elements; equality is
    coefficientwise, which is sound and complete for polynomial identity
    over any coefficient ring.
    """

    __slots__ = ("ring", "_t")

    def __init__(self, ring: Ring, terms: dict | None = None):
        self.ring = ring
        self._t = {k: v for k, v in (terms or {}).items() if not ring.is_zero(v)}

    @staticmethod
    def zero(ring: Ring) -> "RingPoly":
        return RingPoly(ring)

    @staticmethod
    def const(ring: Ring, c) -> "RingPoly":
        return RingPoly(ring, {(0, 0, 0): c})

    @staticmethod
    def var(ring: Ring, name: str) -> "RingPoly":
        exp = [0, 0, 0]
        exp[_VARS.index(name)] = 1
        return RingPoly(ring, {tuple(exp): ring.one()})

    def terms(self):
        return self._t.items()

    def is_zero(self) -> bool:
        return not self._t

    def coeff(self, key):
        return self._t.get(key, self.ring.zero())

    def add(self, other: "RingPoly") -> "RingPoly":
        out = dict(self._t)
        ring = self.ring
        for k, v in other._t.items():
            out[k] = ring.add(out[k], v) if k in out else v
        return RingPoly(ring, out)

    def neg(self) -> "RingPoly":
        return RingPoly(self.ring, {k: self.ring.neg(v) for k, v in self._t.items()})

    def sub(self, other: "RingPoly") -> "RingPoly":
        return self.add(other.neg())

    def mul(self, other: "RingPoly") -> "RingPoly":
        if len(self._t) * len(other._t) > MUL_PAIRS:
            raise BudgetExceeded(f"a law product passes the budget of {MUL_PAIRS} term pairs")
        ring = self.ring
        out: dict = {}
        for k1, v1 in self._t.items():
            for k2, v2 in other._t.items():
                key = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2])
                prod = ring.mul(v1, v2)
                out[key] = ring.add(out[key], prod) if key in out else prod
        return RingPoly(ring, out)

    def scale(self, c) -> "RingPoly":
        ring = self.ring
        return RingPoly(ring, {k: ring.mul(c, v) for k, v in self._t.items()})

    def pow(self, e: int) -> "RingPoly":
        result = RingPoly.const(self.ring, self.ring.one())
        for _ in range(e):
            result = result.mul(self)
        return result

    def substitute(self, mapping: dict[str, "RingPoly"]) -> "RingPoly":
        ring = self.ring
        acc = RingPoly.zero(ring)
        # name -> [sub^0, sub^1, ...]: each power is made once, from the one below it, as pow does
        chains = {name: [RingPoly.const(ring, ring.one())] for name in _VARS}
        for key, c in self._t.items():
            term = RingPoly.const(ring, c)
            for name, e in zip(_VARS, key):
                if not e:
                    continue
                chain = chains[name]
                if len(chain) <= e:
                    sub = mapping.get(name, RingPoly.var(ring, name))
                    while len(chain) <= e:
                        chain.append(chain[-1].mul(sub))
                term = term.mul(chain[e])
            acc = acc.add(term)
        return acc

    def eval(self, assign: dict[str, object]):
        ring = self.ring
        acc = ring.zero()
        for key, c in self._t.items():
            val = c
            for name, e in zip(_VARS, key):
                if e:
                    val = ring.mul(val, ring.pow(assign[name], e))
            acc = ring.add(acc, val)
        return acc

    def eq(self, other: "RingPoly") -> bool:
        keys = set(self._t) | set(other._t)
        return all(self.ring.eq(self.coeff(k), other.coeff(k)) for k in keys)

    def degree_in(self, name: str) -> int:
        i = _VARS.index(name)
        return max((k[i] for k in self._t), default=0)

    def uses(self, name: str) -> bool:
        i = _VARS.index(name)
        return any(k[i] for k in self._t)

    def __str__(self) -> str:
        if not self._t:
            return "0"
        parts = []
        for key in sorted(self._t):
            body = "*".join(
                v if e == 1 else f"{v}^{e}" for v, e in zip(_VARS, key) if e
            )
            c = self.ring.to_str(self._t[key])
            parts.append(f"({c})*{body}" if body else f"({c})")
        return " + ".join(parts)


def parse_poly(ring: Ring, text: str) -> RingPoly:
    """Parse the tiny expression grammar into a law polynomial.

    ``x``, ``y`` (and ``z``) are polynomial variables; any other name must
    be a ring constant such as ``eps`` or ``q``.
    """
    node = exprs.parse(text)
    atoms = {name: RingPoly.const(ring, el) for name, el in ring.constants().items()}
    for v in _VARS:
        atoms[v] = RingPoly.var(ring, v)
    return exprs.evaluate(
        node,
        atoms,
        add=RingPoly.add,
        mul=RingPoly.mul,
        neg=RingPoly.neg,
        from_int=lambda k: RingPoly.const(ring, ring.from_int(k)),
        power=RingPoly.pow,
    )


class RingLaw1D(Record):
    """A candidate one-dimensional law: addition F and multiplication G."""

    __slots__ = ("ring", "F", "G")  # a Ring, and F and G as RingPolys

    @staticmethod
    def twisted(ring: Ring, r) -> "RingLaw1D":
        """The normal-form law F = X + Y, G = r*X*Y."""
        x = RingPoly.var(ring, "x")
        y = RingPoly.var(ring, "y")
        return RingLaw1D(ring, x.add(y), x.mul(y).scale(r))


def _symbolic(ring: Ring) -> bool:
    base = ring
    return isinstance(base, (ZRing, ZqRing, DualRing))


def _poly_identity(lhs: RingPoly, rhs: RingPoly, ring: Ring, rng, budget: int) -> bool:
    if _symbolic(ring):
        return lhs.eq(rhs)
    for _ in range(budget):
        assign = {v: ring.random(rng) for v in _VARS}
        if not ring.eq(lhs.eval(assign), rhs.eval(assign)):
            return False
    return True


def additive_inverse_poly(law: RingLaw1D, bound: int | None = None) -> RingPoly | None:
    """A polynomial I with F(x, I(x)) = 0, or None within the degree bound.

    Solved greedily coefficient by coefficient: since F = X + Y + (mixed),
    the x^k coefficient of F(x, I) shifts by exactly c_k when c_k x^k is
    added, so each c_k is forced in turn.  The final candidate is checked
    exactly; failure only means no inverse exists up to the bound.
    """
    ring = law.ring
    if bound is None:
        bound = 2 * max(law.F.degree_in("x") + law.F.degree_in("y"), 1)
    x = RingPoly.var(ring, "x")
    inv = x.neg()
    for k in range(2, bound + 1):
        residual = law.F.substitute({"y": inv})
        ck = residual.coeff((k, 0, 0))
        if ring.is_zero(ck):
            continue
        mono = RingPoly(ring, {(k, 0, 0): ring.neg(ck)})
        inv = inv.add(mono)
    final = law.F.substitute({"y": inv})
    return inv if final.is_zero() else None


def verify_law(law: RingLaw1D, budget: int = 64, seed: int = 1729) -> Report:
    """Check all ring-law axioms, symbolically where possible.

    The report carries one entry per axiom; nothing raises on failure.
    """
    ring = law.ring
    rng = random.Random(seed)
    rep = Report(f"ring law over {ring.descriptor}")
    x = RingPoly.var(ring, "x")
    y = RingPoly.var(ring, "y")
    z = RingPoly.var(ring, "z")
    F, G = law.F, law.G

    def ident(name, lhs, rhs):
        rep.add(name, _poly_identity(lhs, rhs, ring, rng, budget))

    if law.F.uses("z") or law.G.uses("z"):
        rep.add("bivariate", False, "law polynomials must use x and y only")
        return rep

    ident("co-zero (F(x,0)=x)", F.substitute({"y": RingPoly.zero(ring)}), x)
    ident("add-commutative", F, F.substitute({"x": y, "y": x}))
    ident(
        "add-associative",
        F.substitute({"x": F, "y": z}),
        F.substitute({"y": F.substitute({"x": y, "y": z})}),
    )
    zero_ok = F.substitute({"y": RingPoly.zero(ring)}).eq(x) and F.substitute(
        {"x": RingPoly.zero(ring)}
    ).eq(y)
    if zero_ok:
        inv = additive_inverse_poly(law)
        rep.add(
            "add-inverse",
            inv is not None,
            "" if inv is not None else "no polynomial inverse up to the degree bound",
        )
    else:
        rep.add("add-inverse", False, "not attempted: F is not zero-normalized")
    ident("mul-commutative", G, G.substitute({"x": y, "y": x}))
    ident(
        "mul-associative",
        G.substitute({"x": G, "y": z}),
        G.substitute({"y": G.substitute({"x": y, "y": z})}),
    )
    ident(
        "distributive",
        G.substitute({"y": F.substitute({"x": y, "y": z})}),
        F.substitute(
            {"x": G, "y": G.substitute({"y": z})}
        ),
    )

    # co-unit point: an element c with G(x, c) = x; bounded search over
    # known units, recorded informationally (never a failure).
    note = "no co-unit point found among known units"
    try:
        for u in ring.units():
            if G.substitute({"y": RingPoly.const(ring, u)}).eq(x):
                note = f"co-unit point at {ring.to_str(u)}"
                break
    except UnsupportedRingOperation:
        note = "unit enumeration unavailable; co-unit search skipped"
    rep.add("co-unit-note", True, note)
    return rep


def classify_reduced(law: RingLaw1D):
    """Extract the twist r from a law over a reduced ring.

    Requires the normal form F = X + Y, G = r*X*Y that the classification
    theorem guarantees there; anything else raises NotInNormalForm.
    """
    ring = law.ring
    if not ring.reduced:
        raise UnsupportedRingOperation(
            f"{ring.descriptor} is not flagged reduced; the classifier does not apply"
        )
    x = RingPoly.var(ring, "x")
    y = RingPoly.var(ring, "y")
    if not law.F.eq(x.add(y)):
        raise NotInNormalForm(f"addition law is not X + Y: {law.F}")
    extra = {k for k, _ in law.G.terms() if k != (1, 1, 0)}
    if extra:
        raise NotInNormalForm(f"multiplication law has terms beyond X*Y: {law.G}")
    return law.G.coeff((1, 1, 0))


def twisted_isos(r, r2, ring: Ring, budget: int = 64, seed: int = 1729) -> list:
    """All units u with r = r2*u, each checked to intertwine the twists.

    The map x -> u*x carries multiplication-by-r to multiplication-by-r2
    exactly for those u; every returned unit is verified on samples.
    """
    rng = random.Random(seed)
    out = []
    for u in ring.units():
        if not ring.eq(r, ring.mul(r2, u)):
            continue
        good = True
        for _ in range(budget):
            a, b = ring.random(rng), ring.random(rng)
            lhs = ring.mul(u, ring.mul(r, ring.mul(a, b)))
            rhs = ring.mul(r2, ring.mul(ring.mul(u, a), ring.mul(u, b)))
            if not ring.eq(lhs, rhs):
                good = False
                break
        if good:
            out.append(u)
    return out
