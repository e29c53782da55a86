"""Independent oracle for Witt arithmetic, written from the paper's ghost map.

Nothing here imports qwitt.  Every check goes the ghost route: map the
inputs to ghost components with the family's weights, apply the operation
componentwise there, and invert the ghost map by exact division.  The
library under test evaluates the universal structure polynomials instead,
so the two routes share no code.

Ghost weights, for n in S and d | n with m = n/d:

* classical  w(n, d) = d
* qdef       w(n, d) = d * q^(m-1)               (product twisted by q)
* qbar       w(n, d) = d * sum_{j<m} (1-q)^j     (product twisted by q)
* lenart:Q   w(n, d) = d * Q^(m-1)               (plain product)

Each coefficient ring is handled through a torsion-free model ring in
which the ghost map is injective and division by n is exact:

* ``z``, ``zq``, ``dual`` are their own models (integers, integer
  coefficient tuples, integer pairs);
* ``zmod:m`` lifts to the integers; results are reduced at the end, which
  is valid because the structure polynomials have integer coefficients;
* ``twist:<base>:<r>`` keeps the base's additive group and multiplies as
  ``r*x*y``;
* ``witt:<base>:<T>`` (classical Witt vectors used as coefficients) maps
  through its own inner ghost map into the product ring base^|T|.
"""

from __future__ import annotations


class OracleError(Exception):
    """The oracle could not complete, e.g. an exact division failed."""


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


# ----------------------------------------------------------------------
# Model rings: torsion-free, with exact division by integers.


class IntModel:
    def zero(self):
        return 0

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def scale(self, k, a):
        return k * a

    def pow(self, a, e):
        return a**e

    def divexact(self, a, k):
        q, r = divmod(a, k)
        if r:
            raise OracleError(f"{a} is not divisible by {k}")
        return q


def _trim(cs) -> tuple:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


class PolyModel:
    """Integer polynomials in q as coefficient tuples, lowest degree first."""

    def zero(self):
        return ()

    def add(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        return _trim([x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)])

    def neg(self, a):
        return tuple(-c for c in a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if not a or not b:
            return ()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return _trim(out)

    def scale(self, k, a):
        return _trim([k * c for c in a])

    def pow(self, a, e):
        out = a
        for _ in range(e - 1):
            out = self.mul(out, a)
        return out

    def divexact(self, a, k):
        if any(c % k for c in a):
            raise OracleError(f"{a} is not divisible by {k}")
        return tuple(c // k for c in a)


class DualModel:
    """Integer pairs (a, b) = a + b*eps with eps^2 = 0."""

    def zero(self):
        return (0, 0)

    def add(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def neg(self, a):
        return (-a[0], -a[1])

    def sub(self, a, b):
        return (a[0] - b[0], a[1] - b[1])

    def mul(self, a, b):
        return (a[0] * b[0], a[0] * b[1] + a[1] * b[0])

    def scale(self, k, a):
        return (k * a[0], k * a[1])

    def pow(self, a, e):
        # (x + y*eps)^e = x^e + e*x^(e-1)*y*eps
        return (a[0] ** e, e * a[0] ** (e - 1) * a[1])

    def divexact(self, a, k):
        if a[0] % k or a[1] % k:
            raise OracleError(f"{a} is not divisible by {k}")
        return (a[0] // k, a[1] // k)


class TwistModel:
    """The base's additive group with the product x*y = r*x*y."""

    def __init__(self, base, r):
        self.base, self.r = base, r

    def zero(self):
        return self.base.zero()

    def add(self, a, b):
        return self.base.add(a, b)

    def neg(self, a):
        return self.base.neg(a)

    def sub(self, a, b):
        return self.base.sub(a, b)

    def mul(self, a, b):
        return self.base.mul(self.r, self.base.mul(a, b))

    def scale(self, k, a):
        return self.base.scale(k, a)

    def pow(self, a, e):
        # r^(e-1) * a^e in the base
        out = self.base.pow(a, e)
        return self.base.mul(self.base.pow(self.r, e - 1), out) if e > 1 else out

    def divexact(self, a, k):
        return self.base.divexact(a, k)


class ProductModel:
    """base^k with componentwise operations."""

    def __init__(self, base, k):
        self.base, self.k = base, k

    def zero(self):
        return (self.base.zero(),) * self.k

    def add(self, a, b):
        return tuple(self.base.add(x, y) for x, y in zip(a, b))

    def neg(self, a):
        return tuple(self.base.neg(x) for x in a)

    def sub(self, a, b):
        return tuple(self.base.sub(x, y) for x, y in zip(a, b))

    def mul(self, a, b):
        return tuple(self.base.mul(x, y) for x, y in zip(a, b))

    def scale(self, k, a):
        return tuple(self.base.scale(k, x) for x in a)

    def pow(self, a, e):
        return tuple(self.base.pow(x, e) for x in a)

    def divexact(self, a, k):
        return tuple(self.base.divexact(x, k) for x in a)


# ----------------------------------------------------------------------
# Families: ghost weights and the ghost-side product twist.


class Weights:
    """Ghost weights of one family at one q binding, over one model ring.

    ``q`` is an integer, or ``"sym"`` for the generator of Z[q] (then the
    model must be :class:`PolyModel`).  Weights are integers when they can
    be, and model elements otherwise.
    """

    def __init__(self, family: str, q, model):
        self.family, self.q, self.model = family, q, model
        self._cache: dict = {}
        if family in ("classical",) or family.startswith("lenart:"):
            self.twist = 1
        elif family in ("qdef", "qbar"):
            self.twist = (0, 1) if q == "sym" else q
        else:
            raise ValueError(f"unknown family {family!r}")

    def weight(self, n: int, d: int):
        key = (n, d)
        w = self._cache.get(key)
        if w is None:
            w = self._cache[key] = self._weight(n // d, d)
        return w

    def _weight(self, m: int, d: int):
        fam, q = self.family, self.q
        if fam == "classical":
            return d
        if fam.startswith("lenart:"):
            return d * int(fam.split(":", 1)[1]) ** (m - 1)
        if q != "sym":
            if fam == "qdef":
                return d * q ** (m - 1)
            return d * sum((1 - q) ** j for j in range(m))
        poly = PolyModel()
        if fam == "qdef":
            return tuple([0] * (m - 1) + [d])
        t, acc, term = (1, -1), (), (1,)
        for _ in range(m):
            acc = poly.add(acc, term)
            term = poly.mul(term, t)
        return poly.scale(d, acc)

    def apply(self, w, x):
        if isinstance(w, int):
            return x if w == 1 else self.model.scale(w, x)
        return self.model.mul(w, x)


def ghost(weights: Weights, tset, coords) -> list:
    """Ghost components of ``coords`` (aligned with the sorted ``tset``)."""
    model = weights.model
    pos = {n: i for i, n in enumerate(tset)}
    out = []
    for n in tset:
        acc = model.zero()
        for d in divisors(n):
            term = model.pow(coords[pos[d]], n // d)
            acc = model.add(acc, weights.apply(weights.weight(n, d), term))
        out.append(acc)
    return out


def unghost(weights: Weights, tset, ghosts) -> list:
    """The coordinates with the given ghost components, by exact division."""
    model = weights.model
    pos = {n: i for i, n in enumerate(tset)}
    coords: list = []
    for i, n in enumerate(tset):
        acc = ghosts[i]
        for d in divisors(n)[:-1]:
            term = model.pow(coords[pos[d]], n // d)
            acc = model.sub(acc, weights.apply(weights.weight(n, d), term))
        coords.append(model.divexact(acc, n))  # w(n, n) = n for every family
    return coords


def quotient(tset, m: int) -> tuple:
    return tuple(v for v in tset if v * m in tset)


# ----------------------------------------------------------------------
# Coefficient rings: library representation <-> model representation.


class Codec:
    """Lift library elements into a model ring and bring results back."""

    def __init__(self, descriptor: str):
        if descriptor == "z":
            self.model = IntModel()
        elif descriptor == "zq":
            self.model = PolyModel()
        elif descriptor == "dual":
            self.model = DualModel()
        elif descriptor.startswith("zmod:"):
            self.model = IntModel()
            self.modulus = int(descriptor.split(":", 1)[1])
        elif descriptor.startswith("twist:"):
            base_desc, r = descriptor[len("twist:"):].rsplit(":", 1)
            if base_desc != "z":
                raise ValueError(f"the oracle twists only z, not {base_desc!r}")
            self.inner = Codec(base_desc)
            self.model = TwistModel(self.inner.model, int(r))
        elif descriptor.startswith("witt:"):
            base_desc, setpart = descriptor[len("witt:"):].rsplit(":", 1)
            self.inner = Codec(base_desc)
            self.inner_set = tuple(sorted(int(x) for x in setpart.split(",")))
            self.inner_weights = Weights("classical", None, self.inner.model)
            self.model = ProductModel(self.inner.model, len(self.inner_set))
        else:
            raise ValueError(f"the oracle has no model for ring {descriptor!r}")
        self.kind = descriptor.split(":", 1)[0]

    def lift(self, x):
        if self.kind == "witt":
            coords = [self.inner.lift(c) for c in x]
            return tuple(ghost(self.inner_weights, self.inner_set, coords))
        return x

    def drop(self, x):
        if self.kind == "zmod":
            return x % self.modulus
        if self.kind == "witt":
            coords = unghost(self.inner_weights, self.inner_set, list(x))
            return tuple(self.inner.drop(c) for c in coords)
        return x


class ContextOracle:
    """The ghost-route answers for one (family, q, S, ring) context."""

    def __init__(self, descriptor: str, family: str, q, tset):
        self.codec = Codec(descriptor)
        self.weights = Weights(family, q, self.codec.model)
        self.tset = tuple(tset)

    def ghost(self, coords) -> tuple:
        """Ghost components of a vector, in library representation."""
        codec = self.codec
        gs = ghost(self.weights, self.tset, [codec.lift(c) for c in coords])
        return tuple(codec.drop(x) for x in gs)

    def expected(self, op: str, args) -> tuple:
        """The library's answer for ``op`` on ``args``, by the ghost route.

        ``args`` are coordinate tuples in library representation (for
        ``unghost``, one tuple of ghost components).  The answer is a tuple
        in library representation: coordinates, or ghost components for
        ``ghost``.
        """
        codec, weights, model, tset = self.codec, self.weights, self.codec.model, self.tset
        if op == "unghost":
            coords = unghost(weights, tset, [codec.lift(x) for x in args[0]])
            return tuple(codec.drop(c) for c in coords)
        if op == "ghost":
            return self.ghost(args[0])
        gs = [ghost(weights, tset, [codec.lift(c) for c in a]) for a in args]
        out_set = tset
        if op == "add":
            res = [model.add(x, y) for x, y in zip(*gs)]
        elif op == "mul":
            res = [weights.apply(weights.twist, model.mul(x, y)) for x, y in zip(*gs)]
        elif op == "neg":
            res = [model.neg(x) for x in gs[0]]
        elif op.startswith("frob:"):
            m = int(op.split(":", 1)[1])
            out_set = quotient(tset, m)
            pos = {n: i for i, n in enumerate(tset)}
            res = [gs[0][pos[m * v]] for v in out_set]
        else:
            raise ValueError(f"the oracle has no rule for op {op!r}")
        return tuple(codec.drop(c) for c in unghost(weights, out_set, res))


# ----------------------------------------------------------------------
# Structure polynomials in the CLI's JSON form.


def eval_json_poly(poly: dict, point: dict) -> int:
    """Evaluate ``{"monomials": [{"coeff": "c", "exps": {...}}]}`` at integers."""
    total = 0
    for mon in poly["monomials"]:
        term = int(mon["coeff"])
        for name, e in mon["exps"].items():
            term *= point[name] ** e
        total += term
    return total


def check_mul_polys(family: str, q, tset, polys: dict, point: dict) -> list[int]:
    """Indices n where the emitted pi_n break the ghost equation at ``point``.

    Checks sum_{d|n} w(n,d) pi_d^(n/d) = twist * gx_n * gy_n with integer
    x_d, y_d (and q) taken from ``point``.
    """
    weights = Weights(family, q, IntModel())
    pi = [eval_json_poly(polys[str(n)], point) for n in tset]
    xs = [point[f"x{n}"] for n in tset]
    ys = [point[f"y{n}"] for n in tset]
    lhs = ghost(weights, tset, pi)
    gx, gy = ghost(weights, tset, xs), ghost(weights, tset, ys)
    return [
        n
        for n, left, a, b in zip(tset, lhs, gx, gy)
        if left != weights.apply(weights.twist, a * b)
    ]
