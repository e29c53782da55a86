"""Divisor-stable index sets and their combinatorics.

Every Witt-vector coordinate list in this package is indexed by a finite
set of positive integers closed under taking divisors (a *truncation set*).
The derived sets ``S/n`` and ``S(n)`` and the coprime product ``S*T`` carry
the index bookkeeping behind Frobenius, Verschiebung and the nesting
isomorphism, so they live here, away from any ring arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .exprs import read_int


@cache
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of ``n``, ascending (computed once per n)."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    large.reverse()
    return tuple(small + large)


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of ``n``, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def factorization(n: int) -> list[tuple[int, int]]:
    """Prime factorization of ``n`` as (prime, exponent) pairs, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def v_p(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer ``n``."""
    if n == 0:
        raise ValueError("v_p(0) is infinite")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


@dataclass(frozen=True)
class TruncationSet:
    """A finite divisor-stable set of positive integers, sorted ascending.

    Always contains 1.  Instances are immutable and safe to share.
    """

    elements: tuple[int, ...]

    @staticmethod
    def make(elems) -> "TruncationSet":
        """Divisor closure of ``elems``, deduplicated and sorted.

        Rejects zero, negative and non-integer entries and empty input.
        """
        items = list(elems)
        if not items:
            raise ValueError("a truncation set needs at least one element")
        closed: set[int] = set()
        for n in items:
            if not isinstance(n, int) or n < 1:
                raise ValueError(f"truncation sets contain positive integers, got {n!r}")
            closed.update(divisors(n))
        return TruncationSet(tuple(sorted(closed)))

    @staticmethod
    def parse(text: str) -> "TruncationSet":
        """Parse the comma-separated text form, e.g. ``"1,2,4"``.

        The result is closed under divisors automatically.
        """
        try:
            items = [read_int(part) for part in text.split(",") if part.strip()]
        except ValueError as exc:
            raise ValueError(f"cannot parse truncation set {text!r}") from exc
        return TruncationSet.make(items)

    def __post_init__(self):
        elems = self.elements
        if not elems or elems[0] != 1:
            raise ValueError("a truncation set must contain 1")
        if list(elems) != sorted(set(elems)):
            raise ValueError("elements must be strictly increasing")
        known = set(elems)
        for n in elems:
            for d in divisors(n):
                if d not in known:
                    raise ValueError(f"{n} is present but its divisor {d} is not")

    def __contains__(self, n: int) -> bool:
        return n in self.elements

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __str__(self) -> str:
        return ",".join(str(n) for n in self.elements)

    def index(self, n: int) -> int:
        """Position of ``n`` in the sorted element tuple."""
        try:
            return self.elements.index(n)
        except ValueError:
            raise KeyError(f"{n} is not in the truncation set {self}") from None

    def primes(self) -> list[int]:
        """The prime members, ascending."""
        return [n for n in self.elements if is_prime(n)]

    def quotient(self, n: int) -> "TruncationSet":
        """The set ``S/n`` of all ``v`` in S with ``v*n`` in S."""
        if n not in self:
            raise ValueError(f"{n} is not in {self}")
        return _quotient(self.elements, n)

    def prime_complement(self, n: int) -> "TruncationSet":
        """The set ``S(n)`` of members not divisible by ``n`` (n > 1)."""
        if n == 1:
            raise ValueError("S(1) would be empty; n must exceed 1")
        if n not in self:
            raise ValueError(f"{n} is not in {self}")
        return _prime_complement(self.elements, n)

    def product(self, other: "TruncationSet") -> "TruncationSet":
        """The coprime product ``{n*m}``; inputs must intersect in {1} only."""
        shared = set(self.elements) & set(other.elements)
        if shared != {1}:
            raise ValueError(
                f"truncation sets {self} and {other} are not coprime "
                f"(shared elements {sorted(shared - {1})})"
            )
        prods = {n * m for n in self.elements for m in other.elements}
        return TruncationSet(tuple(sorted(prods)))

    def is_subset(self, other: "TruncationSet") -> bool:
        return set(self.elements) <= set(other.elements)

    def sub_sets(self) -> list["TruncationSet"]:
        """Every divisor-stable subset, ordered by size then lexicographically.

        Found by brute force over all subsets containing 1; the sets used in
        practice are small enough for this to be instantaneous.
        """
        rest = [n for n in self.elements if n != 1]
        found = []
        for mask in range(1 << len(rest)):
            chosen = {1} | {rest[i] for i in range(len(rest)) if mask >> i & 1}
            if all(d in chosen for n in chosen for d in divisors(n)):
                found.append(TruncationSet(tuple(sorted(chosen))))
        found.sort(key=lambda t: (len(t.elements), t.elements))
        return found


# The derived sets are built (and validated) once per (elements, n); the
# sets are immutable, so every caller may share them.


@cache
def _quotient(elements: tuple[int, ...], n: int) -> TruncationSet:
    return TruncationSet(tuple(v for v in elements if v * n in elements))


@cache
def _prime_complement(elements: tuple[int, ...], n: int) -> TruncationSet:
    return TruncationSet(tuple(v for v in elements if v % n != 0))


ONE_SET = TruncationSet((1,))
