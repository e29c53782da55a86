"""Sparse multivariate polynomials over the integers.

Variables are two coordinate banks ``x_d`` and ``y_d`` (d a positive
integer) plus the deformation parameter ``q``.  Coefficients are exact
arbitrary-precision integers; monomials with coefficient zero are never
stored and a monomial has one key, so equality is syntactic.

A monomial's key is one non-negative int, the packed exponents of
Monagan and Pearce: each variable owns a fixed slot of ``_W`` bits, given
in the order variables are first used in the process (:func:`_shift`),
and the key is the sum of e_v << shift(v); the constant monomial is 0.
The layout is global, so keys of any two polynomials combine as they are.
Every exponent stays below 2^(_W-1), so the key of a product of monomials
is the sum of their keys, with no carry between slots.  Before a product,
a bound on its exponents (the sum of the bitwise ors of each operand's
keys) is tested against the top bit of every slot (``_GUARD``), and a
product whose exponents could reach 2^(_W-1) raises BudgetExceeded instead
of wrapping; the bound is below twice the true exponents, so only a
product whose exponents pass 2^(_W-2) can be refused.  Keys are decoded
only at the edges (``terms``, ``variables``, ``eval``, and ``to_rows``,
which ``to_json`` and ``__str__`` read), text, JSON and rows in variable
order, so they do not depend on the layout, and no decoded key is kept.

Every universal structure polynomial in the package is a value of this
type, and every "division" anywhere in the derivation pipeline is an
asserted-exact integer division here.
"""

from __future__ import annotations

import operator
import re
from functools import reduce
from itertools import chain
from threading import Lock

from .errors import BudgetExceeded, UnsupportedRingOperation
from .rings import ZModRing, ZRing

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


# --- the packed layout ----------------------------------------------------
_W = 32  # bits per variable slot
_MASK = (1 << _W) - 1
_LIMIT = 1 << (_W - 1)  # every stored exponent is below this
_SHIFTS: dict[Var, int] = {}  # variable -> its slot's shift, _W * slot
_VARS: list[Var] = []  # slot -> variable
_GUARD = 0  # the top bit of every slot given out so far
_LAYOUT_LOCK = Lock()


def _shift(v: Var) -> int:
    """The shift of ``v``'s slot, which its first use gives out."""
    global _GUARD
    shift = _SHIFTS.get(v)
    if shift is None:
        with _LAYOUT_LOCK:
            shift = _SHIFTS.get(v)
            if shift is None:
                shift = _W * len(_VARS)
                _GUARD |= 1 << (shift + _W - 1)
                _VARS.append(v)
                _SHIFTS[v] = shift  # last: a key in this slot can be checked from now on
    return shift


# The bitwise or of a polynomial's keys, reduce(_or, keys, 0), has in each
# slot at least the largest exponent there and less than twice it, below
# 2^(_W-1) as each exponent is.  The sum of two such bounds carries nothing
# from one slot into the next, so its top bits (& _GUARD) show whether a
# product's exponents could reach 2^(_W-1).
_or = operator.or_


def _overflow() -> BudgetExceeded:
    return BudgetExceeded(f"a product's exponents could reach 2^{_W - 1}")


def _product(a: dict, b: dict, bound: int) -> dict:
    """The terms of the product of the term dicts a and b, whose keys' ors sum to
    ``bound``, or BudgetExceeded if that has a bit in _GUARD; in the order of ``*``."""
    if bound & _GUARD:
        raise _overflow()
    # one monomial times anything: its keys stay distinct, in order
    if len(b) == 1:
        ((k2, c2),) = b.items()
        return {k1 + k2: c1 * c2 for k1, c1 in a.items()}
    if len(a) == 1:
        ((k1, c1),) = a.items()
        return {k1 + k2: c1 * c2 for k2, c2 in b.items()}
    out: dict = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            key = k1 + k2
            s = out.get(key, 0) + c1 * c2
            if s:
                out[key] = s
            elif key in out:
                del out[key]
    return out


_RANKS: tuple = (0, [], [])  # _ranks() of the first slots given out


def _ranks() -> tuple:
    """(slots, the rank of each slot's variable in variable order, the name
    of the variable of each rank), for the slots given out so far."""
    global _RANKS
    n = len(_VARS)
    if _RANKS[0] != n:
        order = sorted(range(n), key=_VARS.__getitem__)
        _RANKS = n, [order.index(slot) for slot in range(n)], [var_name(_VARS[s]) for s in order]
    return _RANKS


def _decode(key: int) -> tuple:
    """The canonical ((var, exp), ...) tuple of a key, sorted by variable."""
    pairs = []
    while key:  # the highest slot first
        shift = key.bit_length() - 1
        shift -= shift % _W
        e = key >> shift
        key -= e << shift
        pairs.append((_VARS[shift // _W], e))
    pairs.sort()
    return tuple(pairs)


class MPoly:
    """An immutable sparse polynomial with integer coefficients."""

    __slots__ = ("_t",)

    def __init__(self, terms: dict | None = None):
        # Takes ownership of `terms`, a dict from packed keys to nonzero
        # coefficients.  Use the constructors below from outside.
        self._t = terms or {}

    # --- constructors --------------------------------------------------
    @staticmethod
    def zero() -> "MPoly":
        return _ZERO

    @staticmethod
    def const(c: int) -> "MPoly":
        return MPoly({0: c}) if c else _ZERO

    @staticmethod
    def var(v: Var, exp: int = 1) -> "MPoly":
        return MPoly.term(1, ((v, exp),))

    @staticmethod
    def term(c: int, exps) -> "MPoly":
        """c times the product of v^e over the pairs (v, e) of ``exps``: what
        ``*`` of the powers :meth:`var` gives, checks included, in one step."""
        key = 0
        for v, e in exps:
            if e < 0:
                raise ValueError("negative exponent")
            if e >= _LIMIT:
                raise BudgetExceeded(f"the exponent {e} of {var_name(v)} is not below 2^{_W - 1}")
            if e:
                key += e << _shift(v)
                if key & _GUARD:
                    raise _overflow()
        return MPoly({key: c}) if c else _ZERO

    @staticmethod
    def from_zpoly(coeffs) -> "MPoly":
        """Embed a Z[q] coefficient tuple as a polynomial in q."""
        if len(coeffs) > _LIMIT:
            raise BudgetExceeded(f"a polynomial in q of degree {len(coeffs) - 1}")
        shift = _shift(Q)
        return MPoly({e << shift: c for e, c in enumerate(coeffs) if c})

    # --- inspection -----------------------------------------------------
    def terms(self) -> list:
        """(((var, exp), ...), coeff) for each term, in the stored order."""
        return [(_decode(key), c) for key, c in self._t.items()]

    def is_zero(self) -> bool:
        return not self._t

    def constant_term(self) -> int:
        return self._t.get(0, 0)

    def variables(self) -> set[Var]:
        return {v for v, _ in _decode(reduce(_or, self._t, 0))}

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
        a, b = self._t, other._t
        return MPoly(_product(a, b, reduce(_or, a, 0) + reduce(_or, b, 0)))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "MPoly":
        if e < 0:
            raise ValueError("negative exponent")
        if not e:
            return MPoly.const(1)
        result, base = None, self
        while True:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if not e:
                return result
            base = base * base

    def __eq__(self, other) -> bool:
        return isinstance(other, MPoly) and self._t == other._t

    __hash__ = None  # mutable-dict core; not hashable

    # --- structure operations ---------------------------------------------
    def substitute(self, mapping: dict[Var, "MPoly"]) -> "MPoly":
        """Replace variables by polynomials; unmapped variables persist.

        Each term's unmapped part, kept packed, is multiplied as ``*`` does
        by the powers of the mapped polynomials in variable order, and the
        terms accumulate in one dict, in the order repeated ``+`` gives them.
        """
        # the mapped variables that have a slot (no key holds any other)
        order = [(_SHIFTS[v], mapping[v]) for v in sorted(mapping) if v in _SHIFTS]
        mapped = sum(_MASK << shift for shift, _ in order)
        out: dict = {}
        cache: dict[tuple[int, int], tuple] = {}  # (shift, e) -> the terms of sub**e, their or
        for key, c in self._t.items():
            rest = key & mapped
            term = {key - rest: c}
            for shift, sub in order:
                if not rest:
                    break
                e = rest >> shift & _MASK
                if e:
                    rest -= e << shift
                    factor = cache.get((shift, e))
                    if factor is None:
                        t = (sub**e)._t
                        factor = cache[(shift, e)] = t, reduce(_or, t, 0)
                    term = _product(term, factor[0], reduce(_or, term, 0) + factor[1])
            for k, tc in term.items():
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
        shift = _shift(v)
        slot, unit = _MASK << shift, 1 << shift
        out = {}
        for key, c in self._t.items():
            if not key & slot:
                return None
            out[key - unit] = c
        return MPoly(out)

    def eval(self, ring, assign: dict[Var, object]):
        """Evaluate in ``ring`` with variables bound by ``assign``.

        The Z-action covers all coefficients, so a constant term is the
        only thing that requires the ring to be unital.  The factors of a
        monomial are multiplied in slot order, which the ring's
        commutativity makes immaterial.  Over z and zmod the products and
        the sum are taken in their cover Z, and reduced once at the end.
        """
        lift, down = ring.cover() if isinstance(ring, (ZRing, ZModRing)) else (ring, None)
        acc, mul, add, scale = lift.zero(), lift.mul, lift.add, lift.int_scale
        powers: dict[int, object] = {}  # v^e of each variable v and exponent e, by its key
        for key, c in self._t.items():
            val = None
            while key:  # the factors v^e of the monomial, the highest slot first
                shift = key.bit_length() - 1
                shift -= shift % _W
                mono = key >> shift << shift
                key -= mono
                p = powers.get(mono)
                if p is None:
                    v = _VARS[shift // _W]
                    if v not in assign:
                        raise ValueError(f"no value assigned to {var_name(v)}")
                    p = powers[mono] = ring.pow(assign[v], mono >> shift)
                val = p if val is None else mul(val, p)
            if val is None:
                if not ring.unital:
                    raise UnsupportedRingOperation(
                        "constant term cannot be evaluated in a non-unital ring"
                    )
                val = ring.one()
            acc = add(acc, scale(c, val))
        return acc if down is None else down(acc)

    # --- serialization -----------------------------------------------------
    def to_rows(self) -> list:
        """The terms as compact rows [coeff, var, exp, var, exp, ...], the
        variables of a row in order and the rows sorted by their (var, exp)
        pairs: the order of the decoded keys, which does not depend on the
        layout.  Each pair sorts as one int, its variable's rank
        (:func:`_ranks`) above its exponent."""
        _, rank, names = _ranks()
        terms = []
        for key, c in self._t.items():
            pairs = []
            while key:  # the highest slot first
                shift = key.bit_length() - 1
                shift -= shift % _W
                e = key >> shift
                key -= e << shift
                pairs.append(rank[shift // _W] << _W | e)
            pairs.sort()
            terms.append((pairs, c))
        terms.sort(key=operator.itemgetter(0))
        rows = []
        for pairs, c in terms:
            row = [c]
            for p in pairs:
                row += names[p >> _W], p & _MASK
            rows.append(row)
        return rows

    def to_json(self) -> dict:
        return {"monomials": [{"coeff": str(row[0]), "exps": dict(zip(row[1::2], row[2::2]))}
                              for row in self.to_rows()]}

    @staticmethod
    def from_json(data: dict) -> "MPoly":
        return MPoly.from_rows([[int(mon["coeff"]), *chain.from_iterable(
            (name, int(e)) for name, e in mon["exps"].items())] for mon in data["monomials"]])

    @staticmethod
    def from_rows(rows: list) -> "MPoly":
        """The sum of the terms of :meth:`to_rows`'s rows.  Each coeff is an
        int, each var a name that :func:`parse_var` reads, at most once in a
        row, and each exp an int from 1 to 2^(_W-1) - 1; anything else raises."""
        out: dict = {}
        shifts: dict = {}  # var name -> its slot's shift
        for c, *pairs in rows:
            if type(c) is not int or len(pairs) % 2:
                raise ValueError("a row is an integer coefficient and (var, exp) pairs")
            key = 0
            for name, e in zip(pairs[::2], pairs[1::2]):
                shift = shifts.get(name)
                if shift is None:
                    shift = shifts[name] = _shift(parse_var(name))
                if type(e) is not int or e <= 0:
                    raise ValueError("exponents must be positive integers")
                if e >= _LIMIT:
                    raise BudgetExceeded(f"the exponent {e} of {name} is not below 2^{_W - 1}")
                if key >> shift & _MASK:
                    raise ValueError(f"{name} appears twice in a monomial")
                key += e << shift
            if c:
                out[key] = out.get(key, 0) + c
        return MPoly({k: c for k, c in out.items() if c})

    def __str__(self) -> str:
        if not self._t:
            return "0"
        parts = []
        for c, *key in self.to_rows():
            body = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(key[::2], key[1::2]))
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
