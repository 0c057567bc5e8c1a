"""Chart expression language: one scalar formula per ambient coordinate.

Grammar (standard precedence, ``^`` right-associative and binding tighter
than unary minus)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := number | name | name '(' expr (',' expr)* ')' | '(' expr ')'

Names are declared chart parameters, the constants ``pi`` and ``e``, or the
functions of ``jets.FUNCTIONS``, whose key set is ``FUNCTIONS``.  Angles are
radians; there is no implicit multiplication.  Evaluation walks the tree with
an operator table (``+ - *`` of jets, ``jets.divide``, ``jets.power`` and
``jets.call``), so every domain rule lives in ``jets``; a ``DomainError``
names the innermost subexpression that broke one.  Parsed expressions are
immutable (frozen dataclasses), so evaluation is reentrant and shared trees
may be evaluated concurrently.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import jets
from .errors import (
    ArityMismatch,
    DomainError,
    UnexpectedToken,
    UnknownCharacter,
    UnknownFunction,
    UnknownIdentifier,
    UnterminatedNumber,
)

# --- tokens ------------------------------------------------------------------


@dataclass(frozen=True)
class Token:
    kind: str  # number | identifier | operator | paren | comma
    lexeme: str
    position: int


_OPERATORS = set("+-*/^")


def tokenize(source: str) -> list[Token]:
    """Split ``source`` into tokens; whitespace separates, anything else is an error."""
    tokens = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        start = i
        if c.isdigit():
            while i < n and source[i].isdigit():
                i += 1
            if i < n and source[i] == ".":
                i += 1
                while i < n and source[i].isdigit():
                    i += 1
            if i < n and source[i] in "eE":
                j = i + 1
                if j < n and source[j] in "+-":
                    j += 1
                if j >= n or not source[j].isdigit():
                    raise UnterminatedNumber("exponent has no digits", start)
                i = j
                while i < n and source[i].isdigit():
                    i += 1
            if i < n and source[i] == ".":
                raise UnterminatedNumber("malformed numeric literal", start)
            tokens.append(Token("number", source[start:i], start))
        elif c.isalpha() or c == "_":
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            tokens.append(Token("identifier", source[start:i], start))
        elif c in _OPERATORS:
            tokens.append(Token("operator", c, start))
            i += 1
        elif c in "()":
            tokens.append(Token("paren", c, start))
            i += 1
        elif c == ",":
            tokens.append(Token("comma", c, start))
            i += 1
        else:
            raise UnknownCharacter(f"unexpected character {c!r}", start)
    return tokens


# --- syntax tree --------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Param:
    index: int  # 1-based, as written (u1, u2, ...)
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple


Expr = Const | Param | Neg | BinOp | Call

FUNCTIONS = jets.FUNCTIONS.keys()

CONSTANTS = {"pi": math.pi, "e": math.e}


class _Parser:
    def __init__(self, tokens, param_names):
        self.tokens = tokens
        self.pos = 0
        self.end = tokens[-1].position + len(tokens[-1].lexeme) if tokens else 0
        self.params = {name: i + 1 for i, name in enumerate(param_names)}

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise UnexpectedToken("unexpected end of input", self.end)
        self.pos += 1
        return tok

    def expect(self, kind, lexeme):
        tok = self.next()
        if tok.kind != kind or tok.lexeme != lexeme:
            raise UnexpectedToken(f"expected {lexeme!r}, found {tok.lexeme!r}", tok.position)
        return tok

    def parse(self):
        e = self.expr()
        tok = self.peek()
        if tok is not None:
            raise UnexpectedToken(f"trailing input {tok.lexeme!r}", tok.position)
        return e

    def expr(self):
        left = self.term()
        while (tok := self.peek()) and tok.kind == "operator" and tok.lexeme in "+-":
            self.next()
            left = BinOp(tok.lexeme, left, self.term())
        return left

    def term(self):
        left = self.unary()
        while (tok := self.peek()) and tok.kind == "operator" and tok.lexeme in "*/":
            self.next()
            left = BinOp(tok.lexeme, left, self.unary())
        return left

    def unary(self):
        tok = self.peek()
        if tok and tok.kind == "operator" and tok.lexeme == "-":
            self.next()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        tok = self.peek()
        if tok and tok.kind == "operator" and tok.lexeme == "^":
            self.next()
            return BinOp("^", base, self.unary())
        return base

    def atom(self):
        tok = self.next()
        if tok.kind == "number":
            return Const(float(tok.lexeme))
        if tok.kind == "paren" and tok.lexeme == "(":
            e = self.expr()
            self.expect("paren", ")")
            return e
        if tok.kind == "identifier":
            nxt = self.peek()
            if nxt and nxt.kind == "paren" and nxt.lexeme == "(":
                return self.call(tok)
            if tok.lexeme in CONSTANTS:
                return Const(CONSTANTS[tok.lexeme])
            if tok.lexeme in self.params:
                return Param(self.params[tok.lexeme], tok.lexeme)
            raise UnknownIdentifier(f"unknown identifier {tok.lexeme!r}", tok.position)
        raise UnexpectedToken(f"unexpected token {tok.lexeme!r}", tok.position)

    def call(self, name_tok):
        if name_tok.lexeme not in FUNCTIONS:
            raise UnknownFunction(f"unknown function {name_tok.lexeme!r}", name_tok.position)
        self.expect("paren", "(")
        args = [self.expr()]
        while (tok := self.peek()) and tok.kind == "comma":
            self.next()
            args.append(self.expr())
        self.expect("paren", ")")
        if len(args) != 1:  # every built-in function is unary
            raise ArityMismatch(
                f"{name_tok.lexeme} takes 1 argument, got {len(args)}", name_tok.position
            )
        return Call(name_tok.lexeme, tuple(args))


def default_param_names(dim: int) -> list[str]:
    return [f"u{i + 1}" for i in range(dim)]


def parse(source: str, param_names=None) -> Expr:
    """Parse ``source`` against the declared parameter names (default u1..u8)."""
    if param_names is None:
        param_names = default_param_names(8)
    return _Parser(tokenize(source), list(param_names)).parse()


# --- printing -----------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        return _PREC[e.op]
    if isinstance(e, Neg):
        return _PREC["neg"]
    if isinstance(e, Const) and e.value < 0:
        return _PREC["neg"]
    return _PREC["atom"]


def to_source(e: Expr) -> str:
    """Render with the minimal parenthesization that reparses to the same tree."""
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Param):
        return e.name
    if isinstance(e, Neg):
        inner = to_source(e.arg)
        if _prec(e.arg) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, Call):
        return f"{e.name}({', '.join(to_source(a) for a in e.args)})"
    lp, rp = _prec(e.left), _prec(e.right)
    mine = _PREC[e.op]
    left = to_source(e.left)
    right = to_source(e.right)
    # the grammar puts an atom to the left of '^'; elsewhere left association
    # lets equal precedence stand unparenthesized
    if (lp != _PREC["atom"]) if e.op == "^" else (lp < mine):
        left = f"({left})"
    # the right operand of '+ - * /' is a tighter production, so an equal-level
    # tree there must be parenthesized to survive reparsing; the right operand
    # of '^' is a full unary chain and only rejects looser binary trees
    if rp <= (1 if e.op in "+-" else 2):
        right = f"({right})"
    return f"{left} {e.op} {right}" if e.op in "+-" else f"{left}{e.op}{right}"


# --- evaluation ---------------------------------------------------------------


_BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": jets.divide,
    "^": jets.power,
}


def _eval(e: Expr, env):
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Param):
        return env[e.index - 1]
    try:
        if isinstance(e, Neg):
            return -_eval(e.arg, env)
        if isinstance(e, Call):
            return jets.call(e.name, _eval(e.args[0], env))
        return _BINARY[e.op](_eval(e.left, env), _eval(e.right, env))
    except DomainError as err:
        if err.node == jets._NODE:
            raise DomainError(to_source(e), err.why) from None
        raise


def eval_jet(e: Expr, points: np.ndarray, order: int = 2) -> jets.Jet:
    """Evaluate at a batch of points, carrying derivatives up to ``order``.

    ``points`` has shape ``(N, dim)``; the result's arrays share that batch
    dimension.  A plain-value sweep uses ``order=0``.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    env = [jets.Jet.parameter(points, i, order) for i in range(points.shape[1])]
    out = _eval(e, env)
    if not isinstance(out, jets.Jet):  # constant expression
        npts, dim = points.shape
        value = np.full(npts, float(out))
        grad = None if order < 1 else np.zeros((npts, dim))
        hess = None if order < 2 else np.zeros((npts, dim, dim))
        return jets.Jet(value, grad, hess)
    if out.order < order:  # e.g. "u1 - u1" folded away the seeds
        raise AssertionError("jet order lost during evaluation")
    return out


def eval_jet2(e: Expr, point) -> tuple[float, np.ndarray, np.ndarray]:
    """Value, gradient and Hessian at a single parameter point."""
    jet = eval_jet(e, np.atleast_2d(point), order=2)
    return float(jet.value[0]), jet.grad[0].copy(), jet.hess[0].copy()


def eval_value(e: Expr, points: np.ndarray) -> np.ndarray:
    return eval_jet(e, points, order=0).value


def max_param_index(e: Expr) -> int:
    if isinstance(e, Param):
        return e.index
    if isinstance(e, Neg):
        return max_param_index(e.arg)
    if isinstance(e, BinOp):
        return max(max_param_index(e.left), max_param_index(e.right))
    if isinstance(e, Call):
        return max((max_param_index(a) for a in e.args), default=0)
    return 0
