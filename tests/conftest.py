"""Shared test settings.

Every property test runs under one deterministic hypothesis profile:
examples are derived from the test itself (no random seed), nothing is
read from or written to an example database, and no per-example deadline
applies.  Each test sets only its own ``max_examples``.
"""

try:
    from hypothesis import settings
except ImportError:  # the property modules then fail on their own import
    pass
else:
    settings.register_profile("qwitt", derandomize=True, database=None, deadline=None)
    settings.load_profile("qwitt")
