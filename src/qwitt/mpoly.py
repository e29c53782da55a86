"""Sparse multivariate polynomials over the integers.

Variables are two coordinate banks ``x_d`` and ``y_d`` (d a positive
integer) plus the deformation parameter ``q``.  Coefficients are exact
arbitrary-precision integers; monomials with coefficient zero are never
stored and the monomial key order is canonical, so equality is syntactic.

Every universal structure polynomial in the package is a value of this
type, and every "division" anywhere in the derivation pipeline is an
asserted-exact integer division here.
"""

from __future__ import annotations

import re

from .errors import UnsupportedRingOperation

# A variable is a (kind, index) pair; the parameter q is ('q', 0).
Var = tuple[str, int]

Q: Var = ("q", 0)


def xvar(d: int) -> Var:
    return ("x", d)


def yvar(d: int) -> Var:
    return ("y", d)


def var_name(v: Var) -> str:
    kind, idx = v
    return "q" if kind == "q" else f"{kind}{idx}"


_VAR_NAME = re.compile(r"([xy])([1-9][0-9]*)")


def parse_var(name: str) -> Var:
    """The variable that :func:`var_name` writes as ``name``: ``q``, or x or
    y and an index in ASCII digits without leading zeros.  Every variable
    has one name, so no two keys of a monomial's ``exps`` name the same
    variable."""
    if name == "q":
        return Q
    m = _VAR_NAME.fullmatch(name)
    if m:
        return (m[1], int(m[2]))
    raise ValueError(f"unknown variable name {name!r}")


def _merge_keys(k1, k2):
    """Multiply two canonical monomial keys (sorted (var, exp) tuples)."""
    out = []
    i = j = 0
    while i < len(k1) and j < len(k2):
        v1, e1 = k1[i]
        v2, e2 = k2[j]
        if v1 == v2:
            out.append((v1, e1 + e2))
            i += 1
            j += 1
        elif v1 < v2:
            out.append(k1[i])
            i += 1
        else:
            out.append(k2[j])
            j += 1
    out.extend(k1[i:])
    out.extend(k2[j:])
    return tuple(out)


class MPoly:
    """An immutable sparse polynomial with integer coefficients."""

    __slots__ = ("_t",)

    def __init__(self, terms: dict | None = None):
        # Takes ownership of `terms`; assumed canonical (no zero coeffs,
        # keys sorted).  Use the constructors below from outside.
        self._t = terms or {}

    # --- constructors --------------------------------------------------
    @staticmethod
    def zero() -> "MPoly":
        return _ZERO

    @staticmethod
    def const(c: int) -> "MPoly":
        return MPoly({(): c}) if c else _ZERO

    @staticmethod
    def var(v: Var, exp: int = 1) -> "MPoly":
        if exp < 0:
            raise ValueError("negative exponent")
        if exp == 0:
            return MPoly.const(1)
        return MPoly({((v, exp),): 1})

    @staticmethod
    def from_zpoly(coeffs) -> "MPoly":
        """Embed a Z[q] coefficient tuple as a polynomial in q."""
        terms = {}
        for e, c in enumerate(coeffs):
            if c:
                key = () if e == 0 else ((Q, e),)
                terms[key] = c
        return MPoly(terms)

    # --- inspection -----------------------------------------------------
    def terms(self):
        return self._t.items()

    def is_zero(self) -> bool:
        return not self._t

    def constant_term(self) -> int:
        return self._t.get((), 0)

    def variables(self) -> set[Var]:
        return {v for key in self._t for v, _ in key}

    def __len__(self) -> int:
        return len(self._t)

    # --- arithmetic -------------------------------------------------------
    def __add__(self, other: "MPoly") -> "MPoly":
        if not other._t:
            return self
        if not self._t:
            return other
        out = dict(self._t)
        for key, c in other._t.items():
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                del out[key]
        return MPoly(out)

    def __neg__(self) -> "MPoly":
        return MPoly({key: -c for key, c in self._t.items()})

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other) -> "MPoly":
        if isinstance(other, int):
            if other == 0:
                return _ZERO
            return MPoly({key: other * c for key, c in self._t.items()})
        out: dict = {}
        for k1, c1 in self._t.items():
            for k2, c2 in other._t.items():
                key = _merge_keys(k1, k2)
                s = out.get(key, 0) + c1 * c2
                if s:
                    out[key] = s
                elif key in out:
                    del out[key]
        return MPoly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "MPoly":
        if e < 0:
            raise ValueError("negative exponent")
        result = MPoly.const(1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base_needed = e >> 1
            if base_needed:
                base = base * base
            e = base_needed
        return result

    def __eq__(self, other) -> bool:
        return isinstance(other, MPoly) and self._t == other._t

    __hash__ = None  # mutable-dict core; not hashable

    # --- structure operations ---------------------------------------------
    def substitute(self, mapping: dict[Var, "MPoly"]) -> "MPoly":
        """Replace variables by polynomials; unmapped variables persist.

        The terms accumulate in one dict, in the order repeated ``+``
        would give them.
        """
        out: dict = {}
        cache: dict[tuple[Var, int], MPoly] = {}
        for key, c in self._t.items():
            term = MPoly.const(c)
            for v, e in key:
                sub = mapping.get(v)
                if sub is None:
                    factor = MPoly({((v, e),): 1})
                else:
                    factor = cache.get((v, e))
                    if factor is None:
                        factor = sub**e
                        cache[(v, e)] = factor
                term = term * factor
            for k, tc in term._t.items():
                s = out.get(k, 0) + tc
                if s:
                    out[k] = s
                else:
                    del out[k]
        return MPoly(out)

    def try_div_int(self, k: int) -> "MPoly | None":
        """Exact coefficientwise quotient by ``k``, or None."""
        if any(c % k for c in self._t.values()):
            return None
        return MPoly({key: c // k for key, c in self._t.items()})

    def div_exact_var(self, v: Var) -> "MPoly | None":
        """Divide by the variable ``v``; None unless every monomial has it."""
        out = {}
        for key, c in self._t.items():
            entry = None
            rest = []
            for vv, e in key:
                if vv == v:
                    entry = e
                    if e > 1:
                        rest.append((vv, e - 1))
                else:
                    rest.append((vv, e))
            if entry is None:
                return None
            out[tuple(rest)] = c
        return MPoly(out)

    def eval(self, ring, assign: dict[Var, object]):
        """Evaluate in ``ring`` with variables bound by ``assign``.

        The Z-action covers all coefficients, so a constant term is the
        only thing that requires the ring to be unital.
        """
        acc = ring.zero()
        cache: dict[tuple[Var, int], object] = {}
        for key, c in self._t.items():
            val = None
            for v, e in key:
                p = cache.get((v, e))
                if p is None:
                    if v not in assign:
                        raise ValueError(f"no value assigned to {var_name(v)}")
                    p = ring.pow(assign[v], e)
                    cache[(v, e)] = p
                val = p if val is None else ring.mul(val, p)
            if val is None:
                if not ring.unital:
                    raise UnsupportedRingOperation(
                        "constant term cannot be evaluated in a non-unital ring"
                    )
                val = ring.one()
            acc = ring.add(acc, ring.int_scale(c, val))
        return acc

    # --- serialization -----------------------------------------------------
    def to_json(self) -> dict:
        mons = []
        for key in sorted(self._t):
            mons.append(
                {
                    "coeff": str(self._t[key]),
                    "exps": {var_name(v): e for v, e in key},
                }
            )
        return {"monomials": mons}

    @staticmethod
    def from_json(data: dict) -> "MPoly":
        out: dict = {}
        for mon in data["monomials"]:
            key = tuple(
                sorted((parse_var(name), int(e)) for name, e in mon["exps"].items())
            )
            c = int(mon["coeff"])
            if any(e <= 0 for _, e in key):
                raise ValueError("exponents must be positive")
            if c:
                out[key] = out.get(key, 0) + c
        return MPoly({k: c for k, c in out.items() if c})

    def __str__(self) -> str:
        if not self._t:
            return "0"
        parts = []
        for key in sorted(self._t):
            c = self._t[key]
            body = "*".join(
                var_name(v) if e == 1 else f"{var_name(v)}^{e}" for v, e in key
            )
            if not body:
                text = str(abs(c))
            elif abs(c) == 1:
                text = body
            else:
                text = f"{abs(c)}*{body}"
            parts.append(("-" if c < 0 else "+", text))
        sign, body = parts[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"MPoly({self})"


_ZERO = MPoly({})
