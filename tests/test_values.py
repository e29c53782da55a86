"""The package's value classes: equal only to their own class with equal
fields, hashed by the tuple of their fields, frozen where they are shared,
picklable, and shown as ``Name(field=value, ...)``."""

import pickle

import pytest

from qwitt import indwitt, onedim, qdeform, systems, witt
from qwitt.report import Check, Report
from qwitt.rings import Z, ZQ, parse_ring
from qwitt.truncset import TruncationSet
from qwitt.universal import Family, UniversalPolySet, derive

S = TruncationSet.make([2])


def _report(*checks):
    rep = Report("r")
    for name, passed in checks:
        rep.add(name, passed)
    return rep


def _law(r):
    x, y = onedim.RingPoly.var(Z, "x"), onedim.RingPoly.var(Z, "y")
    return onedim.RingLaw1D(Z, x.add(y), x.mul(y).scale(r))


# An inductive system and a RingPoly are equal only to themselves, so the
# equal IndVector and RingLaw1D share them.
def _ind_vectors():
    system = indwitt.constant_system(Z, S)
    return indwitt.make(system, [3, 1]), indwitt.make(system, [3, 1]), indwitt.make(system, [0, 1])


def _poly_sets():
    ps = derive(Family.classical(), S)  # memoized: the equal one is rebuilt from copies
    copy = UniversalPolySet(ps.family, ps.tset, dict(ps.sigma), dict(ps.pi), dict(ps.neg),
                            dict(ps.frob))
    return ps, copy, derive(Family.qdef(), S)


def _laws():
    law = _law(2)
    return law, onedim.RingLaw1D(Z, law.F, law.G), _law(3)


# (a, an equal value built apart, a value that differs in one field)
VALUES = {
    "TruncationSet": lambda: (S, TruncationSet((1, 2)), TruncationSet.make([3])),
    "Family": lambda: (Family.qbar(), Family("qbar", g=(1, -1)), Family.qbar((1, 1))),
    "UniversalPolySet": _poly_sets,
    "WittVector": lambda: (witt.make(Family.classical(), S, Z, [3, 1]),
                           witt.make(Family.classical(), S, Z, [3, 1]),
                           witt.make(Family.classical(), S, Z, [3, 2])),
    "IndVector": _ind_vectors,
    "RingLaw1D": _laws,
    "QbarIdentification": lambda: (qdeform.qbar_to_qdef_iso((1, -1), S),
                                   qdeform.qbar_to_qdef_iso((1, -1), S),
                                   qdeform.qbar_to_qdef_iso((0, 1), S)),
    "Check": lambda: (Check("c", True), Check("c", True, ""), Check("c", True, "why")),
    "Report": lambda: (_report(("a", True)), _report(("a", True)), _report(("a", False))),
}
FROZEN = {"TruncationSet", "Family", "UniversalPolySet", "WittVector", "IndVector"}


@pytest.mark.parametrize("name", VALUES)
def test_equal_only_to_the_same_class_with_equal_fields(name):
    a, same, other = VALUES[name]()
    assert type(a).__name__ == name
    assert a == same and not a != same
    assert a != other and not a == other
    fields = tuple(getattr(a, f) for f in type(a).__slots__)
    assert a != fields and fields != a


@pytest.mark.parametrize("name", VALUES)
def test_hash_agrees_with_eq(name):
    a, same, _ = VALUES[name]()
    if name in FROZEN - {"UniversalPolySet"}:
        assert hash(a) == hash(same)
        assert len({a, same}) == 1
    else:  # mutable, or frozen with dict fields: unhashable, as before
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_values_refuse_assignment(name):
    a, same, _ = VALUES[name]()
    for field in type(a).__slots__:
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        with pytest.raises(AttributeError):
            delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == same


@pytest.mark.parametrize("elements", [(), (2,), (1, 3, 2), (1, 2, 2), (1, 4)])
def test_a_truncation_set_checks_its_elements_when_built(elements):
    with pytest.raises(ValueError):
        TruncationSet(elements)


def test_reports_survive_a_pickle_round_trip():
    # the suite workers send their reports back pickled
    rep = Report("r", [Check("a", True), Check("b", False, "no")])
    back = pickle.loads(pickle.dumps([rep, rep.checks[1]]))
    assert back == [rep, rep.checks[1]] and back[0].failures == ["b"]
    for value in (S, Family.lenart(3)):
        assert pickle.loads(pickle.dumps(value)) == value


def test_reprs_read_as_before():
    assert repr(S) == "TruncationSet(elements=(1, 2))"
    assert repr(Family.qbar()) == "Family(tag='qbar', g=(1, -1), q=None)"
    assert repr(Family.lenart(3)) == "Family(tag='lenart', g=None, q=3)"
    assert repr(derive(Family.classical(), TruncationSet.make([1]))) == (
        "UniversalPolySet(family=Family(tag='classical', g=None, q=None), "
        "tset=TruncationSet(elements=(1,)), sigma={1: MPoly(x1 + y1)}, pi={1: MPoly(x1*y1)}, "
        "neg={1: MPoly(-x1)}, frob={1: {1: MPoly(x1)}})")
    assert repr(witt.make(Family.classical(), S, Z, [3, 1])) == "W[classical;1,2](3, 1)"
    assert repr(indwitt.make(indwitt.constant_system(Z, S), [3, 1])) == "IndW[const:z;1,2](3, 1)"
    law = _law(2)
    assert repr(law) == f"RingLaw1D(ring=<ring z>, F={law.F!r}, G={law.G!r})"
    assert repr(Check("d", False, "why")) == "Check(name='d', passed=False, detail='why')"
    assert repr(_report(("a", True))) == (
        "Report(name='r', checks=[Check(name='a', passed=True, detail='')])")
    ident = qdeform.qbar_to_qdef_iso((1, -1), TruncationSet.make([1]))
    assert repr(ident) == (
        "QbarIdentification(g=(1, -1), tset=TruncationSet(elements=(1,)), r=(0, 1), "
        f"alpha={{1: MPoly(x1)}}, alpha_inv={{1: MPoly(x1)}}, report={ident.report!r})")
    assert repr(ident.report).startswith(
        "Report(name='qbar[-q+1] ~ qdef[q] on 1', checks=[Check(name='fixes-first-coordinate', "
        "passed=True, detail=''), ")


def _op_results():
    """(name, the value a public builder returns, and the context and
    coordinates it must hold) over Z, Z/6 and Z[q]: the four ring ops and
    int_scale against the context's own ops; the rest against coordinates
    read off their input."""
    tset, low = TruncationSet.make([4]), TruncationSet.make([2])
    out = []
    for ring, family, coords in ((Z, Family.classical(), ([3, 1, -2], [2, 5, 7])),
                                 (parse_ring("zmod:6"), Family.lenart(2), ([3, 1, 4], [2, 5, 1])),
                                 (ZQ, Family.qdef(), ([(1, 2), (), (0, -1)], [(3,), (1, 1), ()]))):
        a, b = (witt.make(family, tset, ring, c) for c in coords)
        ctx, x, y, z = a.context, a.coords, b.coords, ring.zero()
        f = witt.frobenius(a, 2)
        rows = [("add", witt.add(a, b), (ctx, ctx.add(x, y))),
                ("mul", witt.mul(a, b), (ctx, ctx.mul(x, y))),
                ("neg", witt.neg(a), (ctx, ctx.neg(x))),
                ("frob2", f, (ctx.on(low), ctx.frobenius(2, x))),
                ("int_scale", witt.int_scale(3, a), (ctx, ctx.int_scale(3, x))),
                ("verschiebung", witt.verschiebung(f, 2, tset), (ctx, (z, *f.coords))),
                ("project", witt.project(a, low), (ctx.on(low), x[:2])),
                ("section", witt.section(witt.project(a, low), tset), (ctx, (*x[:2], z))),
                ("map_coords", witt.map_coords(a, lambda c: c, ring), (ctx, x)),
                ("vector_from_json", witt.vector_from_json(family, tset, ring,
                                                           witt.vector_to_json(a)), (ctx, x))]
        if ring.torsion_free:
            rows.append(("unghost", witt.unghost(family, tset, ring, witt.ghost(a)), (ctx, x)))
        else:
            last = list(witt.enumerate_vectors(family, tset, ring))[-1]
            rows.append(("enumerate_vectors", last, (ctx, (ring.from_int(5),) * 3)))
        out += [(f"{op}-{ring.descriptor}", v, *want) for op, v, want in rows]
    a = witt.make(Family.classical(), TruncationSet.make([6]), Z, [3, 1, -2, 5])
    iso = systems.NestingIso(TruncationSet.make([2]), TruncationSet.make([3]), Z)
    out.append(("nesting_backward-z", iso.backward(iso.forward(a)), a.context, a.coords))
    return out


@pytest.mark.parametrize("v, ctx, coords", [pytest.param(*row[1:], id=row[0]) for row in _op_results()])
def test_op_results_are_the_vectors_of_their_coordinates(v, ctx, coords):
    same = witt.WittVector(ctx, coords)
    assert type(v) is witt.WittVector and v == same and hash(v) == hash(same)
    assert len({v, same}) == 1 and v != (ctx, coords)
    for field in ("context", "coords"):
        with pytest.raises(AttributeError):
            setattr(v, field, None)
        with pytest.raises(AttributeError):
            delattr(v, field)
    with pytest.raises(AttributeError):
        v.extra = 1
    back = pickle.loads(pickle.dumps(v))
    assert back == v and back.context is ctx  # contexts come back interned
    assert repr(v) == repr(same) and repr(v).startswith(f"W[{ctx.family.label()};{ctx.tset}](")
