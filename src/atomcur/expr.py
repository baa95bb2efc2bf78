"""Closed-form scalar expressions of chart coordinates.

Grammar (documented canonical form; ``parse(to_string(e))`` evaluates
identically to ``e``)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' exponent)*          # left-associative, integer exponent
    atom   := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

Precedence: ``^`` > unary ``-`` > ``*``, ``/`` > ``+``, ``-``; equal
precedence associates left.  NAME is either a declared coordinate symbol
or one of the elementary functions sin, cos, tan, exp, log, sqrt, sinh,
cosh.  Numeric literals (integers, decimals, scientific notation) are
stored as exact rationals.

Expressions are immutable trees; evaluation produces a :class:`~atomcur.jets.Jet`
carrying the value and all partial derivatives up to a requested order.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .jets import (ELEMENTARY_FUNCTIONS, FLOAT, EvalDomainError, ExactModeError,
                   Jet, JetSpace, apply_elementary, as_scalar)

__all__ = [
    "Expression", "Const", "Sym", "Add", "Sub", "Mul", "Div", "Neg", "Pow",
    "Call", "parse", "as_expr", "to_string", "eval_jet", "jet_at", "evaluate", "monomial_form",
    "ExprSyntaxError", "UndeclaredSymbolError",
    "EvalDomainError", "ExactModeError",
]


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class UndeclaredSymbolError(ValueError):
    def __init__(self, name: str, offset: int = -1):
        super().__init__(f"undeclared symbol {name!r}")
        self.name = name
        self.offset = offset


class Expression:
    """Base of the immutable expression nodes.

    Nodes define no arithmetic operators: derived expressions are built by
    the folding builders (``ex_add``, ``ex_mul``, ...).  ``_jets`` is the
    node's jet memo (see :func:`jet_at`), so it is freed with the node.
    """

    __slots__ = ("_jets", "__weakref__")


class Const(Expression):
    __slots__ = ("value",)

    def __init__(self, value):
        if isinstance(value, (int, str)):
            value = Fraction(value)
        self.value = value  # Fraction for exact literals, float otherwise


class Sym(Expression):
    __slots__ = ("index", "name")

    def __init__(self, index: int, name: str):
        self.index = index
        self.name = name


class _Binary(Expression):
    __slots__ = ("a", "b")

    def __init__(self, a: Expression, b: Expression):
        self.a = a
        self.b = b


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()


class Neg(Expression):
    __slots__ = ("a",)

    def __init__(self, a: Expression):
        self.a = a


class Pow(Expression):
    __slots__ = ("a", "k")

    def __init__(self, a: Expression, k: int):
        self.a = a
        self.k = int(k)


class Call(Expression):
    __slots__ = ("fn", "a")

    def __init__(self, fn: str, a: Expression):
        if fn not in ELEMENTARY_FUNCTIONS:
            raise ValueError(f"unknown function {fn!r}")
        self.fn = fn
        self.a = a


# ---------------------------------------------------------------------------
# Builders with light constant folding.  Used when assembling derived
# expressions (monomial probes, products and sums of fields); the parser
# builds raw nodes so that parsing is structure-faithful.

def _is_const(e, v=None):
    return isinstance(e, Const) and (v is None or e.value == v)


def ex_add(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    return Add(a, b)


def ex_sub(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(b, 0):
        return a
    if _is_const(a, 0):
        return ex_neg(b)
    return Sub(a, b)


def ex_neg(a):
    if _is_const(a):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


def ex_mul(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    if _is_const(a, 0) or _is_const(b, 0):
        return Const(0)
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
        return a
    return Mul(a, b)


def ex_div(a, b):
    if _is_const(b, 1):
        return a
    if _is_const(a, 0) and not _is_const(b, 0):
        return Const(0)
    if _is_const(a) and _is_const(b) and b.value != 0:
        return Const(Fraction(a.value) / b.value)
    return Div(a, b)


def ex_pow(a, k):
    if k == 0:
        return Const(1)
    if k == 1:
        return a
    if _is_const(a):
        return Const(a.value ** k if k >= 0 else Fraction(1) / (a.value ** (-k)))
    return Pow(a, k)


def ex_sqrt(a):
    # fold square roots of perfect-square rational constants; keeps flat
    # orthonormal charts exactly representable in rational mode
    if _is_const(a) and isinstance(a.value, Fraction) and a.value >= 0:
        num, den = a.value.numerator, a.value.denominator
        rn, rd = math.isqrt(num), math.isqrt(den)
        if rn * rn == num and rd * rd == den:
            return Const(Fraction(rn, rd))
    return Call("sqrt", a)


# ---------------------------------------------------------------------------
# Tokenizer / parser.

_OPS = set("+-*/^()")


def _tokenize(text: str):
    toks = []  # (kind, value, offset)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPS:
            toks.append((c, c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            toks.append(("num", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)
    toks.append(("end", "", n))
    return toks


class _Parser:
    def __init__(self, text: str, symbols):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.symbols = {name: i for i, name in enumerate(symbols)}

    def peek(self):
        return self.toks[self.pos]

    def advance(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {kind!r}", tok[2])
        return tok

    def parse(self):
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError("trailing input", tok[2])
        return e

    def expr(self):
        e = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        return e

    def term(self):
        e = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            rhs = self.unary()
            e = Mul(e, rhs) if op == "*" else Div(e, rhs)
        return e

    def unary(self):
        if self.peek()[0] == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        e = self.atom()
        while self.peek()[0] == "^":
            self.advance()
            e = Pow(e, self.exponent())
        return e

    def exponent(self):
        sign = 1
        if self.peek()[0] == "-":
            self.advance()
            sign = -1
        tok = self.expect("num")
        if not tok[1].isdigit():
            raise ExprSyntaxError("exponent must be an integer", tok[2])
        return sign * int(tok[1])

    def atom(self):
        tok = self.advance()
        kind, value, off = tok
        if kind == "num":
            return Const(Fraction(value))
        if kind == "(":
            e = self.expr()
            self.expect(")")
            return e
        if kind == "name":
            if value in ELEMENTARY_FUNCTIONS:
                self.expect("(")
                e = self.expr()
                self.expect(")")
                return Call(value, e)
            if value in self.symbols:
                return Sym(self.symbols[value], value)
            raise UndeclaredSymbolError(value, off)
        raise ExprSyntaxError("expected a value", off)


def parse(text: str, symbols) -> Expression:
    """Parse ``text`` against the declared coordinate symbol names."""
    if not symbols or len(set(symbols)) != len(tuple(symbols)):
        raise ValueError("chart symbols must be non-empty and distinct")
    return _Parser(text, tuple(symbols)).parse()


def as_expr(v, names):
    """Expression of a string (parsed over ``names``) or a number; an
    expression is returned as is, and nested lists give nested tuples."""
    if isinstance(v, (list, tuple)):
        return tuple(as_expr(x, names) for x in v)
    if isinstance(v, Expression):
        return v
    if isinstance(v, str):
        return parse(v, names)
    return Const(v)


# ---------------------------------------------------------------------------
# Printing.  Fully deterministic; minimal parentheses under the grammar.

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(e):
    if isinstance(e, (Add, Sub)):
        return _PREC_ADD
    if isinstance(e, (Mul, Div)):
        return _PREC_MUL
    if isinstance(e, Neg):
        return _PREC_NEG
    if isinstance(e, Pow):
        return _PREC_POW
    if isinstance(e, Const) and (
            e.value < 0 or (isinstance(e.value, Fraction) and e.value.denominator != 1)):
        return _PREC_MUL  # prints with '/' or leading '-'
    return _PREC_ATOM


def _wrap(e, minimum):
    s = to_string(e)
    return f"({s})" if _prec(e) < minimum else s


def to_string(e: Expression) -> str:
    if isinstance(e, Const):
        v = e.value
        if isinstance(v, Fraction):
            return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
        return repr(v)
    if isinstance(e, Sym):
        return e.name
    if isinstance(e, Add):
        return f"{_wrap(e.a, _PREC_ADD)} + {_wrap(e.b, _PREC_ADD)}"
    if isinstance(e, Sub):
        return f"{_wrap(e.a, _PREC_ADD)} - {_wrap(e.b, _PREC_ADD + 1)}"
    if isinstance(e, Mul):
        return f"{_wrap(e.a, _PREC_MUL)}*{_wrap(e.b, _PREC_MUL + 1)}"
    if isinstance(e, Div):
        return f"{_wrap(e.a, _PREC_MUL)}/{_wrap(e.b, _PREC_MUL + 1)}"
    if isinstance(e, Neg):
        return f"-{_wrap(e.a, _PREC_NEG)}"
    if isinstance(e, Pow):
        k = f"{e.k}" if e.k >= 0 else f"-{-e.k}"
        return f"{_wrap(e.a, _PREC_ATOM)}^{k}"
    if isinstance(e, Call):
        return f"{e.fn}({to_string(e.a)})"
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# Evaluation through jet arithmetic.

def eval_jet(e: Expression, point, order: int, mode: str = FLOAT) -> Jet:
    """Jet of the expression at ``point`` up to ``order``.

    The coefficient at multi-index T is (1/T!) d^T e(point); exact in
    rational mode for rational expressions, raising :class:`ExactModeError`
    if the expression contains an elementary function.
    """
    n = len(point)
    space = JetSpace(n, order)
    vals = [as_scalar(x, mode) for x in point]

    def go(node):
        if isinstance(node, Const):
            return Jet.const(space, mode, node.value)
        if isinstance(node, Sym):
            if node.index >= n:
                raise UndeclaredSymbolError(node.name)
            return Jet.variable(space, mode, node.index, vals[node.index])
        if isinstance(node, Add):
            return go(node.a) + go(node.b)
        if isinstance(node, Sub):
            return go(node.a) - go(node.b)
        if isinstance(node, Mul):
            return go(node.a) * go(node.b)
        if isinstance(node, Div):
            return go(node.a) * go(node.b).reciprocal()
        if isinstance(node, Neg):
            return -go(node.a)
        if isinstance(node, Pow):
            return go(node.a).power(node.k)
        if isinstance(node, Call):
            return apply_elementary(node.fn, go(node.a))
        raise TypeError(f"not an expression: {node!r}")

    return go(e)


def jet_at(e: Expression, point, order: int, mode: str = FLOAT) -> Jet:
    """``eval_jet(e, point, order, mode)``, memoized on the node ``e``.

    Per (point, mode) the memo holds the jet at the highest order asked for
    so far and the truncations taken from it.  Graded-lex order makes a
    truncation a prefix of the coefficients, and a truncated jet equals the
    jet evaluated at the lower order (bit for bit in float mode: each
    lower-order coefficient sums the same products in the same order, and
    the extra terms of a higher-order series all carry a factor of the
    zero-valued deviation).  So ``eval_jet`` runs again only when the order
    rises.  The returned jet is shared; jets are never modified in place.
    """
    try:
        memo = e._jets
    except AttributeError:
        memo = e._jets = {}
    key = (point, mode)
    held = memo.get(key)
    if held is None:
        held = memo[key] = {}
    hit = held.get(order)
    if hit is None:
        top = max(held, default=-1)
        hit = held[top].truncate(order) if top > order else eval_jet(e, point, order, mode)
        held[order] = hit
    return hit


def evaluate(e: Expression, point, mode: str = FLOAT):
    """Plain value of the expression at a point."""
    return eval_jet(e, point, 0, mode).value


def monomial_form(point, T, names) -> Expression:
    """The monomial (x - p)^T / T! centered at ``point``, as an expression."""
    if len(T) != len(point) or len(names) != len(point):
        raise ValueError("point, multi-index and names must share a dimension")
    fact = 1
    acc = Const(1)
    for i, t in enumerate(T):
        fact *= math.factorial(t)
        if t == 0:
            continue
        base = ex_sub(Sym(i, names[i]), Const(point[i]))
        acc = ex_mul(acc, ex_pow(base, t))
    return ex_div(acc, Const(fact))
