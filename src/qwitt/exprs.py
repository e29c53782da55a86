"""Tiny expression grammar shared by element parsing and the law CLI.

Grammar (integer literals, named atoms, ``+ - * ^`` and parentheses)::

    expr   := term (('+'|'-') term)*
    term   := factor ('*'? factor)*      # explicit '*' required
    factor := '-' factor | atom ('^' INT)?
    atom   := INT | NAME | '(' expr ')'

``parse`` produces a small AST of nested tuples; what a NAME means and which
ring the integers land in is the caller's business.  ``evaluate`` refuses,
before it computes anything, an expression whose value could outgrow
MAX_BITS, so that a literal exponent cannot ask for gigabytes.
"""

from __future__ import annotations

import re

from .errors import BudgetExceeded

MAX_BITS = 1 << 24  # the largest estimated size of a value that evaluate builds
# the most characters one JSON input or one argument of the command line
# may have: decimal parsing is quadratic in a literal's length, and this
# keeps a literal's parse well under a second
INPUT_BUDGET = 1 << 17
# the most bits an input element may take (``Ring.bits``): what a literal
# within INPUT_BUDGET characters can spell, at fewer than 4 bits per digit
INPUT_BITS = 4 * INPUT_BUDGET
# A power x^e takes about e times the bits of x, so up to this exponent a
# power of an input element stays within MAX_BITS; a larger e checks
# e * bits(x) first (``Ring.pow``, and the Witt kernels over Z and Z[q]).
FREE_EXPONENT = MAX_BITS // INPUT_BITS

# The one spelling of an integer in text inputs: ASCII digits, which
# ``int`` alone does not insist on (it also reads 1_0, +1 and the digits of
# other scripts).  Whitespace around it is ASCII too.
_DIGITS = "[0-9]+"
_TOKEN = re.compile(rf"\s*(?:({_DIGITS})|([A-Za-z_][A-Za-z_0-9]*)|([-+*^()]))", re.ASCII)
_INT = re.compile(rf"\s*(-?{_DIGITS})\s*", re.ASCII)


def read_int(text: str, signed: bool = False) -> int:
    """The integer that ``text`` spells in ASCII digits, with a leading
    minus only when ``signed``; ValueError for any other spelling."""
    m = _INT.fullmatch(text)
    if not m or (not signed and m.group(1)[0] == "-"):
        raise ValueError(f"expected an integer in ASCII digits, got {text!r}")
    return int(m.group(1))


def tokenize(text: str) -> list[tuple[str, object]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ValueError(f"bad character in expression: {text[pos:]!r}")
            break
        pos = m.end()
        if m.group(1):
            tokens.append(("int", int(m.group(1))))
        elif m.group(2):
            tokens.append(("name", m.group(2)))
        else:
            tokens.append(("op", m.group(3)))
    tokens.append(("end", None))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        if tok[0] == "end":
            raise ValueError(f"unexpected end of expression {self.text!r}")
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ValueError(f"expected {op!r}, found {val!r}")

    def expr(self):
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.take()
            rhs = self.term()
            node = ("add", node, rhs) if op == "+" else ("add", node, ("neg", rhs))
        return node

    def term(self):
        node = self.factor()
        while self.peek() == ("op", "*"):
            self.take()
            node = ("mul", node, self.factor())
        return node

    def factor(self):
        if self.peek() == ("op", "-"):
            self.take()
            return ("neg", self.factor())
        node = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            kind, val = self.take()
            if kind != "int":
                raise ValueError("exponents must be integer literals")
            node = ("pow", node, val)
        return node

    def atom(self):
        kind, val = self.take()
        if kind == "int":
            return ("int", val)
        if kind == "name":
            return ("var", val)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ValueError(f"unexpected token {val!r}")


def parse(text: str):
    """Parse ``text`` into an AST of nested tuples."""
    parser = _Parser(text)
    node = parser.expr()
    if parser.peek() != ("end", None):
        raise ValueError(f"trailing input in expression {text!r}")
    return node


def _estimate(node) -> tuple[int, int]:
    """Bounds (degree, log) on the value of ``node``, read as a polynomial
    in its NAMEs: its total degree, and log2 of the sum of the sizes of its
    coefficients, which a sum raises by at most one, a product adds and an
    e-th power multiplies by e."""
    tag = node[0]
    if tag == "int":
        return 0, max(abs(node[1]) - 1, 0).bit_length()
    if tag == "var":
        return 1, 0
    if tag == "neg":
        return _estimate(node[1])
    if tag == "pow":
        degree, log = _estimate(node[1])
        return node[2] * degree, node[2] * log
    (d1, l1), (d2, l2) = _estimate(node[1]), _estimate(node[2])
    if tag == "add":
        return max(d1, d2), max(l1, l2) + 1
    return d1 + d2, l1 + l2


def _names(node) -> set:
    tag = node[0]
    if tag == "int":
        return set()
    if tag == "var":
        return {node[1]}
    if tag == "pow":
        return _names(node[1])
    return set().union(*map(_names, node[1:]))


def evaluate(node, atoms: dict, add, mul, neg, from_int, power):
    """Fold an AST with caller-supplied operations.

    ``atoms`` maps NAMEs to values; the five callbacks assemble the result.
    Raises BudgetExceeded, before any callback runs, when the value could
    take more than MAX_BITS: at most (degree + 1)^k coefficients of
    log + 1 bits each, for k distinct NAMEs.  No subexpression is larger
    than the whole by this estimate.
    """
    degree, log = _estimate(node)
    size = (degree + 1) ** len(_names(node)) * (log + 1)
    if size > MAX_BITS:
        raise BudgetExceeded(
            f"the expression's value could take {size} bits (budget {MAX_BITS})"
        )

    def walk(n):
        tag = n[0]
        if tag == "int":
            return from_int(n[1])
        if tag == "var":
            if n[1] not in atoms:
                raise ValueError(f"unknown name {n[1]!r} in expression")
            return atoms[n[1]]
        if tag == "neg":
            return neg(walk(n[1]))
        if tag == "add":
            return add(walk(n[1]), walk(n[2]))
        if tag == "mul":
            return mul(walk(n[1]), walk(n[2]))
        if tag == "pow":
            return power(walk(n[1]), n[2])
        raise ValueError(f"unknown AST node {tag!r}")

    return walk(node)
