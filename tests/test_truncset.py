"""Index-set combinatorics: construction, derived sets, subset lattice."""

import itertools

import pytest

from qwitt.truncset import TruncationSet, divisors, v_p


def test_make_minimal():
    assert TruncationSet.make([1]).elements == (1,)


def test_make_closes_under_divisors():
    assert TruncationSet.make([4]).elements == (1, 2, 4)
    assert TruncationSet.make([6]).elements == (1, 2, 3, 6)


def test_make_rejects_bad_entries():
    with pytest.raises(ValueError):
        TruncationSet.make([0])
    with pytest.raises(ValueError):
        TruncationSet.make([-3])
    with pytest.raises(ValueError):
        TruncationSet.make([])


def test_parse_round_trip():
    s = TruncationSet.parse("1,2,4")
    assert str(s) == "1,2,4"
    assert TruncationSet.parse("6").elements == (1, 2, 3, 6)


def test_quotient_examples():
    assert TruncationSet.make([4]).quotient(2).elements == (1, 2)
    assert TruncationSet.make([6]).quotient(6).elements == (1,)
    for p in (2, 3, 5):
        assert TruncationSet.make([p]).quotient(p).elements == (1,)
    with pytest.raises(ValueError):
        TruncationSet.make([4]).quotient(3)


def test_derived_sets_are_built_once_and_shared():
    s12 = TruncationSet.make([12])
    assert s12.quotient(2) is TruncationSet.make([12]).quotient(2)
    assert s12.quotient(2).elements == (1, 2, 3, 6)
    assert s12.prime_complement(3) is s12.prime_complement(3)
    assert divisors(12) == (1, 2, 3, 4, 6, 12) and divisors(12) is divisors(12)
    with pytest.raises(ValueError):
        s12.quotient(5)
    with pytest.raises(ValueError):
        TruncationSet((1, 4))  # validation still runs for every new set


def test_prime_complement_examples():
    assert TruncationSet.make([4]).prime_complement(2).elements == (1,)
    assert TruncationSet.make([6]).prime_complement(2).elements == (1, 3)
    assert TruncationSet.make([6]).prime_complement(3).elements == (1, 2)
    with pytest.raises(ValueError):
        TruncationSet.make([6]).prime_complement(1)
    with pytest.raises(ValueError):
        TruncationSet.make([6]).prime_complement(5)


def test_product_examples():
    assert TruncationSet.make([2]).product(TruncationSet.make([3])).elements == (
        1, 2, 3, 6,
    )
    assert TruncationSet.make([1]).product(TruncationSet.make([5])).elements == (1, 5)
    with pytest.raises(ValueError):
        TruncationSet.make([2]).product(TruncationSet.make([2]))


def test_sub_sets_examples():
    assert [t.elements for t in TruncationSet.make([1]).sub_sets()] == [(1,)]
    assert [t.elements for t in TruncationSet.make([3]).sub_sets()] == [(1,), (1, 3)]
    assert [t.elements for t in TruncationSet.make([4]).sub_sets()] == [
        (1,), (1, 2), (1, 2, 4),
    ]


def test_sub_sets_against_exhaustive_filter():
    # independent oracle: filter all subsets containing 1 by divisor stability
    s = TruncationSet.make([12])
    rest = [n for n in s if n != 1]
    expected = set()
    for k in range(len(rest) + 1):
        for combo in itertools.combinations(rest, k):
            chosen = {1, *combo}
            if all(d in chosen for n in chosen for d in divisors(n)):
                expected.add(tuple(sorted(chosen)))
    assert {t.elements for t in s.sub_sets()} == expected


def test_quotient_identities():
    for elems in ([4], [6], [12], [2, 9]):
        s = TruncationSet.make(elems)
        assert s.quotient(1) == s
        for n in s:
            for m in s.quotient(n):
                if n * m in s:
                    assert s.quotient(n).quotient(m) == s.quotient(n * m)


def test_prime_splitting():
    for elems in ([4], [6], [12], [30]):
        s = TruncationSet.make(elems)
        for p in s.primes():
            lifted = {p * v for v in s.quotient(p)}
            rest = set(s.prime_complement(p).elements)
            assert lifted | rest == set(s.elements)
            assert not lifted & rest


def test_product_quotient_compatibility():
    t1, t2 = TruncationSet.make([4]), TruncationSet.make([3])
    prod = t1.product(t2)
    for n in t1:
        assert prod.quotient(n) == t1.quotient(n).product(t2)


def test_v_p():
    assert v_p(12, 2) == 2
    assert v_p(12, 3) == 1
    assert v_p(7, 2) == 0
    with pytest.raises(ValueError):
        v_p(0, 2)
