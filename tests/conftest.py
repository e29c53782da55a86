"""Shared test settings.

Every property test runs under one deterministic hypothesis profile:
examples are derived from the test itself (no random seed), nothing is
read from or written to an example database, and no per-example deadline
applies.  Each test sets only its own ``max_examples``.
"""

import os
from pathlib import Path

import pytest

try:
    from hypothesis import settings
except ImportError:  # the property modules then fail on their own import
    pass
else:
    settings.register_profile("qwitt", derandomize=True, database=None, deadline=None)
    settings.load_profile("qwitt")


@pytest.fixture
def src_env() -> dict:
    """The environment of a child Python that imports qwitt from this
    checkout's ``src``."""
    return dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))


@pytest.fixture
def plant(monkeypatch):
    """Puts into the memo of ``universal.derive``, for the test only, a copy
    of derive(family, tset) with times*x1 added to one polynomial: the one at
    n of the law "sigma", "pi" or "neg", or of the Frobenius bank "frob:m".
    A certificate that reads that polynomial must refuse the set."""
    from qwitt import universal
    from qwitt.mpoly import MPoly, xvar

    def put(family, tset, law, n, times=1):
        ps = universal.derive(family, tset)
        fields = {k: getattr(ps, k) for k in ("sigma", "pi", "neg", "frob")}
        kind, _, m = law.partition(":")
        bank = fields["frob"][int(m)] if m else fields[kind]
        bank = {**bank, n: bank[n] + times * MPoly.var(xvar(1))}
        if m:
            fields["frob"] = {**fields["frob"], int(m): bank}
        else:
            fields[kind] = bank
        monkeypatch.setitem(universal._MEM, (family.key(), tset.elements),
                            universal.UniversalPolySet(family, tset, *fields.values()))
    return put
