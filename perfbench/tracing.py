"""Per-layer spans and counters, wrapped around qwitt from outside.

Installed only in traced processes; nothing under ``src/`` changes.  Each
wrapper times one call into a layer.  A span's self time is its duration
minus the time of the wrapped spans that ran inside it, so the self times
of nested layers add up instead of overlapping.  Every ``*_s`` metric is a
self time, except ``suites.<name>_s``, which is the whole suite.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

RING_KINDS = ("z", "zmod", "zq", "dual", "twist", "witt")
WITT_OPS = {"add": "add", "mul": "mul", "neg": "neg", "frobenius": "frob",
            "ghost": "ghost", "unghost": "unghost"}
FAMILY_TAGS = ("classical", "qdef", "qbar", "lenart")
SUITE_NAMES = ("truncset", "rings", "mpoly", "universal", "witt", "qdeform",
               "onedim", "systems", "indwitt")
_RING_CLASSES = {"ZRing": "z", "ZModRing": "zmod", "ZqRing": "zq", "DualRing": "dual",
                 "TwistedRing": "twist", "WittCoeffRing": "witt"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {
        "universal.derive_calls": "count",
        "universal.derive_terms": "count",
        **{f"universal.derive_s.{tag}": "s" for tag in FAMILY_TAGS},
        "universal.cache_load_s": "s",
        "universal.cache_disk_hits": "count",
        "universal.cache_store_s": "s",
        "universal.cache_bytes": "bytes",
        "mpoly.mul_calls": "count",
        "mpoly.mul_s": "s",
        "mpoly.mul_terms_out": "count",
        "mpoly.to_json_s": "s",
        "rings.zp_mul_calls": "count",
        "rings.zp_mul_s": "s",
        "rings.zp_mul_len_le4": "count",
        "rings.zp_mul_len_le16": "count",
        "rings.zp_mul_len_le64": "count",
        "rings.zp_mul_len_gt64": "count",
        **{f"witt.compile_s.{kind}": "s" for kind in RING_KINDS},
    }
    for op in WITT_OPS.values():
        for kind in RING_KINDS:
            units[f"witt.{op}.{kind}.count"] = "count"
            units[f"witt.{op}.{kind}.self_s"] = "s"
    units.update({
        "cli.startup_s": "s",
        "cli.emit_s": "s",
        "cli.out_bytes": "bytes",
        "cli.polys_cold_s": "s",
        "cli.polys_disk_s": "s",
        "cli.verify_s": "s",
    })
    for name in SUITE_NAMES:
        units[f"suites.{name}_s"] = "s"
        units[f"suites.{name}_checks"] = "count"
    units.update({
        "trace.ops_per_s.untraced": "ops/s",
        "trace.ops_per_s.traced": "ops/s",
        "trace.overhead_frac": "ratio",
    })
    return units


def _ring_kind(ring) -> str:
    return _RING_CLASSES.get(type(ring).__name__, "other")


class Tracer:
    """Counters and self times, filled by wrappers that :meth:`install` sets."""

    def __init__(self):
        self.stack: list[int] = []
        self.values: dict[str, float] = defaultdict(float)
        self.derive_by_set: dict[str, float] = defaultdict(float)

    def span(self, fn, account, inclusive: bool = False):
        """Wrap ``fn``; ``account(seconds, args, result)`` runs after each call."""
        stack, perf = self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            stack.append(0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                total = perf() - t0
                inner = stack.pop()
                if stack:
                    stack[-1] += total
            account((total if inclusive else total - inner) / 1e9, args, result)
            return result

        return wrapper

    def install(self) -> None:
        from qwitt import cli, rings, suites, universal, witt
        from qwitt.mpoly import MPoly

        v = self.values

        def derived(sec, args, ps):
            family, tset = args
            v[f"universal.derive_s.{family.tag}"] += sec
            v["universal.derive_calls"] += 1
            banks = [ps.sigma, ps.pi, ps.neg, *ps.frob.values()]
            v["universal.derive_terms"] += sum(len(p) for bank in banks for p in bank.values())
            self.derive_by_set[f"{family.label()} {{{tset}}}"] += sec

        def loaded(sec, args, ps):
            v["universal.cache_load_s"] += sec
            v["universal.cache_disk_hits"] += ps is not None

        def stored(sec, args, _):
            v["universal.cache_store_s"] += sec
            path = universal._cache_file(args[0].family, args[0].tset)
            if path and os.path.exists(path):
                v["universal.cache_bytes"] += os.path.getsize(path)

        universal._derive_uncached = self.span(universal._derive_uncached, derived)
        universal._disk_load = self.span(universal._disk_load, loaded)
        universal._disk_store = self.span(universal._disk_store, stored)

        def poly_mul(sec, args, out):
            v["mpoly.mul_calls"] += 1
            v["mpoly.mul_s"] += sec
            v["mpoly.mul_terms_out"] += len(out)

        scalar_mul = MPoly.__mul__
        traced_mul = self.span(scalar_mul, poly_mul)
        MPoly.__mul__ = lambda a, b: scalar_mul(a, b) if isinstance(b, int) else traced_mul(a, b)
        MPoly.to_json = self.span(MPoly.to_json, self._adder("mpoly.to_json_s"))

        def zp_mul(sec, args, _):
            v["rings.zp_mul_calls"] += 1
            v["rings.zp_mul_s"] += sec
            n = max(len(args[0]), len(args[1]))
            bucket = "le4" if n <= 4 else "le16" if n <= 16 else "le64" if n <= 64 else "gt64"
            v[f"rings.zp_mul_len_{bucket}"] += 1

        rings.zp_mul = self.span(rings.zp_mul, zp_mul)

        for fn_name, op in WITT_OPS.items():
            def witt_op(sec, args, _, op=op):
                ring = args[2] if op == "unghost" else args[0].ring
                kind = _ring_kind(ring)
                v[f"witt.{op}.{kind}.count"] += 1
                v[f"witt.{op}.{kind}.self_s"] += sec

            setattr(witt, fn_name, self.span(getattr(witt, fn_name), witt_op))

        def compiled(sec, args, _):
            v[f"witt.compile_s.{_ring_kind(args[2])}"] += sec

        witt._Law = self.span(witt._Law, compiled)
        cli._emit = self.span(cli._emit, self._adder("cli.emit_s"))

        for name, fn in list(suites.SUITES.items()):
            def suite_done(sec, args, report, name=name):
                v[f"suites.{name}_s"] += sec
                v[f"suites.{name}_checks"] += len(report.checks)

            suites.SUITES[name] = self.span(fn, suite_done, inclusive=True)

    def _adder(self, name: str):
        def add(sec, args, result):
            self.values[name] += sec

        return add

    def dump(self) -> dict:
        return {"values": dict(self.values), "derive_by_set": dict(self.derive_by_set)}


def merge(dumps: list[dict]) -> dict:
    """Sum the counters and times of several traced processes."""
    values: dict[str, float] = defaultdict(float)
    by_set: dict[str, float] = defaultdict(float)
    for d in dumps:
        for k, x in d["values"].items():
            values[k] += x
        for k, x in d["derive_by_set"].items():
            by_set[k] += x
    return {"values": dict(values), "derive_by_set": dict(by_set)}
