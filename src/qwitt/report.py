"""Structured pass/fail reports for the verification machinery, and the
value classes that they and the package's other records build on.

Verifiers never abort on a failed axiom; they localize it.  A report is a
named list of checks, each with an optional detail string, and serializes
to the JSON shape the command line emits.
"""

from __future__ import annotations

import operator


class Record:
    """A value built from its ``__slots__`` in order, equal only to the same
    class with equal fields, shown as ``Name(field=value, ...)``; mutable, so
    unhashable.  ``dataclasses`` costs every command start-up time for this."""

    __slots__ = ()

    def __init_subclass__(cls):
        if cls.__slots__:  # the fields, read in C: a field, or a tuple of them
            cls._key = operator.attrgetter(*cls.__slots__)

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):  # hot: Witt and system ops compare sets and families
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), self._fields()


class FrozenRecord(Record):
    """A :class:`Record` that refuses assignment, hashed by its fields.  Those
    built on every Witt op set their fields through their slots' own setters."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Check(Record):
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        self.name, self.passed, self.detail = name, passed, detail


class Report(Record):
    __slots__ = ("name", "checks")

    def __init__(self, name: str, checks: list[Check] | None = None):
        self.name = name
        self.checks = [] if checks is None else checks

    def add(self, name: str, passed: bool, detail: str = "") -> bool:
        self.checks.append(Check(name, bool(passed), detail))
        return bool(passed)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]

    def check(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json(self) -> dict:
        return {
            "suite": self.name,
            "passed": self.passed,
            "failures": self.failures,
            "checks": [
                {"name": c.name, "passed": c.passed, **({"detail": c.detail} if c.detail else {})}
                for c in self.checks
            ],
        }
