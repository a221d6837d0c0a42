"""Arithmetic expression DSL with exact forward-mode differentiation.

Expressions are the carrier for metric components and scalar fields. The
grammar is a fixed arithmetic grammar (no conditionals, no user functions)
so that every expression has exact first and second derivatives, obtained
by forward-mode code emitted for the expression rather than by finite
differencing:

    expr   := term (('+'|'-') term)*          left associative
    term   := factor (('*'|'/') factor)*      left associative
    factor := '-' factor | power
    power  := atom ('^' factor)?              right associative
    atom   := NUMBER | symbol | func '(' expr ')' | '(' expr ')'
    func   := sin cos tan sinh cosh tanh exp log sqrt abs
    NUMBER := digits ['.' digits] [('e'|'E') ['+'|'-'] digits]

so precedence is ^ above unary minus above '*' '/' above '+' '-'.
'^' with a non-constant exponent is evaluated as exp(b*log(a)) and therefore
requires a positive base. Numbers are plain decimal literals; coordinates
are dimensionless (geometric units throughout).

There is one evaluator: `_CodeGen` emits straight-line Python for the value,
the gradient and the upper triangle of the Hessian, mirrored so that the
Hessian is symmetric to the bit. All five entry points (`compile_value`,
`compile_jet1`, `compile_jet2`, `eval_jet2`, and `eval_jet1`, which returns
the compiled (value, gradient) pair) take that code from one bounded LRU
cache keyed by the order, the AST or fused set (a tuple of ASTs compiled to
one function that returns one flat tuple), the coordinate names and the
parameter names. The code is compiled for the expression's shape, the AST
with its k-th literal read as the parameter '#k', a name the parser never
produces. Everything that is not a coordinate reaches it by one rule, as a
leading argument: the AST (for its error messages), then its literal values,
then the parameter values, so a chart compiles once whatever its values and
a field that differs from a compiled one only in its numbers compiles
nothing. Each AST node computes its hash once, on first use.
The emitted code alone keeps one contract for every entry point: all outputs
are finite, or the call raises a DomainError naming the expression (in a
fused set, the member that failed) and the point.

The same text, less its finiteness line, also runs in a second namespace on
(N,) coordinate arrays (`eval_block`, and `eval_jet2` on an (N, d) array).
There each math function, log, sqrt and power is applied element by element
with Python's math and **, so every entry has the scalar code's bits, and a
helper gives NaN where its scalar form raises; + - * / are elementwise IEEE
operations. A non-finite column is settled by running the scalar code at
that point, which raises its own error or, where its power turns a NaN into
1 (NaN^0 and 1^NaN, as IEEE pow does), gives the row its values. The array
variant is cached under its own key and compiled on first use.
"""

from __future__ import annotations

import functools
import math
import types
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParseError, UnknownSymbol

FUNCTIONS = ("sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "log", "sqrt", "abs")


# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------

class _Node:
    """Base of the frozen AST nodes, which compare by value. A node keeps its
    hash, computed on first use, in a slot that pickles leave out, since str
    hashes differ between processes."""

    __slots__ = ("_hash",)

    def __hash__(self):
        cached = getattr(self, "_hash", None)
        if cached is None:
            cached = hash(tuple(getattr(self, name) for name in self.__match_args__))
            object.__setattr__(self, "_hash", cached)
        return cached


@dataclass(frozen=True, slots=True, eq=False)
class Num(_Node):
    """A literal. Equality tells 0.0 from -0.0, which compare equal as
    floats, so that a cache keyed by the AST never hands one the other's code."""

    value: float

    def __eq__(self, other):
        if other.__class__ is not Num:
            return NotImplemented
        return (self.value == other.value
                and math.copysign(1.0, self.value) == math.copysign(1.0, other.value))


@dataclass(frozen=True, slots=True)
class Sym(_Node):
    name: str


@dataclass(frozen=True, slots=True)
class Neg(_Node):
    child: "Expr"


@dataclass(frozen=True, slots=True)
class BinOp(_Node):
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, slots=True)
class Call(_Node):
    func: str
    arg: "Expr"


# dataclass would give each class a field-tuple hash that walks the tree
for _cls in (Num, Sym, Neg, BinOp, Call):
    _cls.__hash__ = _Node.__hash__

Expr = Num | Sym | Neg | BinOp | Call


def symbols_in(ast) -> frozenset[str]:
    """Names of all symbols referenced by the expression."""
    names, stack = set(), [ast]
    while stack:
        node = stack.pop()
        if isinstance(node, Sym):
            names.add(node.name)
        elif isinstance(node, _Node):
            stack.extend(getattr(node, name) for name in node.__match_args__)
    return frozenset(names)


# --------------------------------------------------------------------------
# Tokenizer / parser
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str   # NUMBER IDENT OP LPAREN RPAREN END
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        start_col = col
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
            tokens.append(_Token("NUMBER", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("IDENT", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if c in "+-*/^":
            tokens.append(_Token("OP", c, line, start_col))
        elif c == "(":
            tokens.append(_Token("LPAREN", c, line, start_col))
        elif c == ")":
            tokens.append(_Token("RPAREN", c, line, start_col))
        else:
            raise ParseError(f"unexpected character '{c}'", line, start_col)
        i += 1
        col += 1
    tokens.append(_Token("END", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens, declared):
        self.tokens = tokens
        self.pos = 0
        self.declared = frozenset(declared)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expr(self):
        node = self.term()
        while self.peek().kind == "OP" and self.peek().text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek().kind == "OP" and self.peek().text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.factor())
        return node

    def factor(self):
        if self.peek().kind == "OP" and self.peek().text == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek().kind == "OP" and self.peek().text == "^":
            self.advance()
            return BinOp("^", base, self.factor())
        return base

    def atom(self):
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            try:
                return Num(float(tok.text))
            except ValueError:  # str.isdigit accepts digits float does not, such as '²'
                raise ParseError(f"malformed number '{tok.text}'", tok.line, tok.column) from None
        if tok.kind == "IDENT":
            self.advance()
            if self.peek().kind == "LPAREN":
                if tok.text not in FUNCTIONS:
                    raise UnknownSymbol(tok.text, tok.line, tok.column)
                self.advance()
                arg = self.expr()
                closing = self.peek()
                if closing.kind != "RPAREN":
                    raise ParseError("unbalanced parenthesis", closing.line, closing.column,
                                     expected=("')'",))
                self.advance()
                return Call(tok.text, arg)
            if tok.text not in self.declared:
                raise UnknownSymbol(tok.text, tok.line, tok.column)
            return Sym(tok.text)
        if tok.kind == "LPAREN":
            self.advance()
            inner = self.expr()
            closing = self.peek()
            if closing.kind != "RPAREN":
                raise ParseError("unbalanced parenthesis", closing.line, closing.column,
                                 expected=("')'",))
            self.advance()
            return inner
        raise ParseError(f"unexpected {tok.kind.lower() if tok.kind != 'END' else 'end of input'}",
                         tok.line, tok.column, expected=("number", "symbol", "'('"))


def parse(text: str, declared_symbols) -> Expr:
    """Parse expression text over the given coordinate/parameter names."""
    if not text.strip():
        raise ParseError("empty expression")
    parser = _Parser(_tokenize(text), declared_symbols)
    node = parser.expr()
    trailing = parser.peek()
    if trailing.kind != "END":
        raise ParseError(f"unexpected trailing '{trailing.text}'", trailing.line, trailing.column)
    return node


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "NEG": 3, "^": 4, "ATOM": 5}


def _prec(ast) -> int:
    if isinstance(ast, BinOp):
        return _PREC[ast.op]
    if isinstance(ast, Neg):
        return _PREC["NEG"]
    return _PREC["ATOM"]


def to_source(ast) -> str:
    """Canonical printer; parse(to_source(a)) == a for any parseable a."""
    if isinstance(ast, Num):
        return repr(ast.value)
    if isinstance(ast, Sym):
        return ast.name
    if isinstance(ast, Neg):
        inner = to_source(ast.child)
        if _prec(ast.child) < _PREC["NEG"]:
            inner = f"({inner})"
        return "-" + inner
    if isinstance(ast, Call):
        return f"{ast.func}({to_source(ast.arg)})"
    p = _PREC[ast.op]
    left = to_source(ast.left)
    right = to_source(ast.right)
    if ast.op == "^":
        # right associative: parenthesize a left child of equal precedence
        if _prec(ast.left) <= p:
            left = f"({left})"
        if _prec(ast.right) < p:
            right = f"({right})"
    else:
        if _prec(ast.left) < p:
            left = f"({left})"
        if _prec(ast.right) <= p:
            right = f"({right})"
    return f"{left} {ast.op} {right}" if ast.op in "+-" else f"{left}{ast.op}{right}"


@dataclass(frozen=True)
class ScalarField:
    """A scalar expression over a chart, kept together with its source text."""

    ast: Expr
    source_text: str

    @classmethod
    def from_text(cls, text: str, declared_symbols) -> "ScalarField":
        return cls(parse(text, declared_symbols), text)


# --------------------------------------------------------------------------
# Jets
# --------------------------------------------------------------------------

class Jet2:
    """Value, gradient (n,) and symmetric Hessian (n, n) of an expression at
    a point. Entries for variables the expression does not reference are
    exactly zero."""

    __slots__ = ("value", "gradient", "hessian")

    def __init__(self, value, gradient, hessian):
        self.value = value
        self.gradient = gradient
        self.hessian = hessian


# --------------------------------------------------------------------------
# Compilation to plain-float code
# --------------------------------------------------------------------------

def _checked_log(v):
    if v <= 0.0:
        raise DomainError(f"log of non-positive value {v!r}")
    return math.log(v)


def _checked_sqrt(v):
    if v <= 0.0:
        raise DomainError(f"sqrt of non-positive value {v!r} (derivative singular at 0)")
    return math.sqrt(v)


def _pow_vd(base, k):
    """(base**k, first and second derivative in base) for a constant exponent
    k. At base 0 an integer power keeps its polynomial derivatives (x^2 has
    second derivative 2) and a negative one raises."""
    if k == 0.0:
        return 1.0, 0.0, 0.0
    if float(k).is_integer():
        k = int(k)
        if base == 0.0:
            if k < 0:
                raise DomainError("division by zero in negative integer power")
            return 0.0, (1.0 if k == 1 else 0.0), (2.0 if k == 2 else 0.0)
        return base ** k, k * base ** (k - 1), k * (k - 1) * base ** (k - 2)
    if base <= 0.0:
        raise DomainError(f"non-integer power of non-positive base {base!r}")
    return base ** k, k * base ** (k - 1.0), k * (k - 1.0) * base ** (k - 2.0)


def _sign_nonzero(v):
    if v == 0.0:
        raise DomainError("abs is not differentiable at 0")
    return math.copysign(1.0, v)


def _nonzero(v):
    if v == 0.0:
        raise DomainError("division by zero")
    return v


def _elementwise(fn):
    """fn over a float, or over an array one element at a time, so that each
    element gets the bits of the scalar code (numpy's own transcendental
    functions differ from math's in the last bit on some CPUs); NaN where fn
    raises."""
    def one(v):
        try:
            return fn(v)
        except (DomainError, ArithmeticError, ValueError):
            return math.nan

    def apply(v):
        if not isinstance(v, np.ndarray):
            return one(v)
        values = v.tolist()
        try:
            return np.fromiter(map(fn, values), float, len(values))
        except (DomainError, ArithmeticError, ValueError):
            return np.fromiter(map(one, values), float, len(values))
    return apply


def _pow_or_nan(base, k):
    """_pow_vd(base, k) for a float base, NaN where it raises or base is NaN."""
    if not math.isnan(base):
        try:
            return _pow_vd(base, k)
        except (DomainError, ArithmeticError, ValueError):
            pass
    return math.nan, math.nan, math.nan


def _stacked_pow_vd(base, k):
    """_pow_vd over an array of bases, each power taken by Python's ** as the
    scalar code takes it (numpy's power takes b**2 as b*b, which differs in
    the last bit), except b**0 = 1 and b**1 = b, which ** gives exactly. NaN
    where _pow_vd raises and wherever the base or k is NaN, so that no NaN
    turns finite; _pow_vd, like IEEE pow, gives NaN^0 = 1 and 1^NaN = 1, so
    the scalar code may pass a point whose row is NaN here."""
    if math.isnan(k):
        return math.nan, math.nan, math.nan
    if not isinstance(base, np.ndarray):
        return _pow_or_nan(base, k)
    if k == 0.0:
        one = np.where(np.isnan(base), math.nan, 1.0)
        return one, one - 1.0, one - 1.0
    values = base.tolist()

    def power(e):
        if e == 0:
            return 1.0
        return base if e == 1 else np.array([b ** e for b in values], dtype=float)
    integer = float(k).is_integer()
    # a zero base, or a non-positive one under a non-integer power, takes the
    # scalar code's branches, element by element below
    if not ((base == 0.0).any() if integer else (base <= 0.0).any()):
        try:
            if integer:
                k = int(k)
                return power(k), float(k) * power(k - 1), float(k * (k - 1)) * power(k - 2)
            return power(k), k * power(k - 1.0), k * (k - 1.0) * power(k - 2.0)
        except ArithmeticError:  # a power overflowed
            pass
    return tuple(np.array(column, dtype=float)
                 for column in zip(*(_pow_or_nan(b, k) for b in values)))


def _stacked_sign_nonzero(v):
    # v is an array: the slope of abs is emitted only for an argument that
    # depends on a coordinate
    return np.where(v == 0.0, math.nan, np.copysign(1.0, v))


def _stacked_nonzero(v):
    if isinstance(v, np.ndarray):
        return np.where(v == 0.0, math.nan, v)
    return math.nan if v == 0.0 else v  # a constant divisor


def _wrap_domain(exc, ast, values):
    return DomainError(f"{exc} while evaluating '{to_source(ast)}' at {tuple(values)}")


_COMPILE_GLOBALS = {
    "__builtins__": {},
    "math": math,
    "abs": abs,
    "_pow_vd": _pow_vd,
    "_sign_nonzero": _sign_nonzero,
    "_nonzero": _nonzero,
    "_checked_log": _checked_log,
    "_checked_sqrt": _checked_sqrt,
    "DomainError": DomainError,
    "ArithmeticError": ArithmeticError,
    "ValueError": ValueError,
    "_wrap_domain": _wrap_domain,
}

#: the same code run on (N,) coordinate arrays: every helper gives NaN where
#: its scalar form raises, and + - * / are elementwise IEEE operations, so
#: each element is computed as the scalar code computes it
_STACKED_GLOBALS = dict(
    _COMPILE_GLOBALS,
    math=types.SimpleNamespace(**{name: _elementwise(getattr(math, name)) for name in
                                  ("sin", "cos", "tan", "sinh", "cosh", "tanh", "exp")}),
    _pow_vd=_stacked_pow_vd,
    _sign_nonzero=_stacked_sign_nonzero,
    _nonzero=_stacked_nonzero,
    _checked_log=_elementwise(_checked_log),
    _checked_sqrt=_elementwise(_checked_sqrt),
)

# value, f' and f'' (None: exactly zero) per function, over the argument {a},
# the value temp {v} and the f' temp {d}
_CODEGEN_CALLS = {
    "sin": ("math.sin({a})", "math.cos({a})", "-{v}"),
    "cos": ("math.cos({a})", "-math.sin({a})", "-{v}"),
    "tan": ("math.tan({a})", "1.0 + {v}*{v}", "2.0*{v}*{d}"),
    "sinh": ("math.sinh({a})", "math.cosh({a})", "{v}"),
    "cosh": ("math.cosh({a})", "math.sinh({a})", "{v}"),
    "tanh": ("math.tanh({a})", "1.0 - {v}*{v}", "-2.0*{v}*{d}"),
    "exp": ("math.exp({a})", "{v}", "{v}"),
    "log": ("_checked_log({a})", "1.0/{a}", "-1.0/({a}*{a})"),
    "sqrt": ("_checked_sqrt({a})", "0.5/{v}", "-0.25/({a}*{v})"),
    "abs": ("abs({a})", "_sign_nonzero({a})", None),
}


class _CodeGen:
    """Emit unrolled forward-mode code of order 0, 1 or 2 for one expression.

    The expression is a shape (`_shape`): each of its literals is a
    parameter, read as an argument p0, p1, ... of the code like any other.
    emit returns (value, gradient, hessian): a temp or parameter argument,
    one expression per coordinate, and a dict over the upper triangle
    (i <= j) of the Hessian; None and a missing key are exact zeros. Order 0
    seeds no derivatives and order 1 emits no Hessian entries, so the value
    and gradient lines are the same at every order.
    """

    def __init__(self, coord_names, parameter_names, order):
        self.coords = tuple(coord_names)
        self.params = tuple(parameter_names)
        self.order = order
        self.lines = []
        self.counter = 0

    def temp(self, expr):
        name = f"v{self.counter}"
        self.counter += 1
        self.lines.append(f"        {name} = {expr}")
        return name

    def pairs(self, *gradients):
        """Upper-triangle index pairs whose Hessian entry can be nonzero."""
        if self.order < 2:
            return []
        live = [i for i in range(len(self.coords)) if any(g[i] is not None for g in gradients)]
        return [(i, j) for a, i in enumerate(live) for j in live[a:]]

    def emit(self, node):
        n = len(self.coords)
        if isinstance(node, Sym):
            if node.name in self.params:
                return f"p{self.params.index(node.name)}", [None] * n, {}
            if node.name not in self.coords:
                raise UnknownSymbol(node.name)
            i = self.coords.index(node.name)
            ds = [None] * n
            if self.order:
                ds[i] = "1.0"
            return f"x{i}", ds, {}
        if isinstance(node, Neg):
            val, ds, hs = self.emit(node.child)
            return (self.temp(f"-{val}"), [None if d is None else self.temp(f"-{d}") for d in ds],
                    {ij: self.temp(f"-{h}") for ij, h in hs.items()})
        if isinstance(node, Call):
            aval, ads, ahs = self.emit(node.arg)
            value_tpl, d_tpl, dd_tpl = _CODEGEN_CALLS[node.func]
            val = self.temp(value_tpl.format(a=aval))
            if all(d is None for d in ads):
                return val, ads, {}
            dfn = self.temp(d_tpl.format(a=aval, v=val))
            ddfn = None
            if dd_tpl is not None and self.order == 2:
                ddfn = self.temp(dd_tpl.format(a=aval, v=val, d=dfn))
            return (val, *self._chain(dfn, ddfn, ads, ahs))
        # BinOp
        if node.op == "^":
            if symbols_in(node.right) & set(self.coords):
                # non-constant exponent: rewrite as exp(b * log(a))
                return self.emit(Call("exp", BinOp("*", node.right, Call("log", node.left))))
            bval, bds, bhs = self.emit(node.left)
            kval, _, _ = self.emit(node.right)
            triple = self.temp(f"_pow_vd({bval}, {kval})")
            val = self.temp(f"{triple}[0]")
            if all(d is None for d in bds):
                return val, bds, {}
            dfn = self.temp(f"{triple}[1]")
            ddfn = self.temp(f"{triple}[2]") if self.order == 2 else None
            return (val, *self._chain(dfn, ddfn, bds, bhs))
        lval, lds, lhs = self.emit(node.left)
        rval, rds, rhs = self.emit(node.right)
        if node.op in "+-":
            val = self.temp(f"{lval} {node.op} {rval}")
            ds = [self._combine(a, b, node.op) for a, b in zip(lds, rds)]
            hs = {ij: self._combine(lhs.get(ij), rhs.get(ij), node.op)
                  for ij in sorted(lhs.keys() | rhs.keys())}
            return val, ds, hs
        if node.op == "*":
            val = self.temp(f"{lval} * {rval}")
            ds = []
            for a, b in zip(lds, rds):
                terms = []
                if a is not None:
                    terms.append(f"{rval} * {a}")
                if b is not None:
                    terms.append(f"{lval} * {b}")
                ds.append(self.temp(" + ".join(terms)) if terms else None)
            hs = {}
            for i, j in self.pairs(lds, rds):
                terms = []
                if (i, j) in rhs:
                    terms.append(f"{lval} * {rhs[i, j]}")
                if (i, j) in lhs:
                    terms.append(f"{rval} * {lhs[i, j]}")
                cross = [f"{lds[p]} * {rds[q]}" for p, q in ((i, j), (j, i))
                         if lds[p] is not None and rds[q] is not None]
                if cross:
                    terms.append(f"({' + '.join(cross)})")
                if terms:
                    hs[i, j] = self.temp(" + ".join(terms))
            return val, ds, hs
        # division
        rsafe = self.temp(f"_nonzero({rval})")
        val = self.temp(f"{lval} / {rsafe}")
        ds = []
        for a, b in zip(lds, rds):
            if a is None and b is None:
                ds.append(None)
            elif b is None:
                ds.append(self.temp(f"{a} / {rsafe}"))
            else:
                num = f"{a} * {rsafe} - {lval} * {b}" if a is not None else f"-({lval}) * {b}"
                ds.append(self.temp(f"({num}) / ({rsafe} * {rsafe})"))
        # q = u/w: q_ij = (u_ij - q_i w_j - q_j w_i - q w_ij) / w
        hs = {}
        for i, j in self.pairs(lds, rds):
            minus = [f"{ds[p]} * {rds[q]}" for p, q in ((i, j), (j, i)) if rds[q] is not None]
            if (i, j) in rhs:
                minus.append(f"{val} * {rhs[i, j]}")
            if (i, j) in lhs or minus:
                num = " - ".join([lhs.get((i, j), "0.0")] + minus)
                hs[i, j] = self.temp(f"({num}) / {rsafe}")
        return val, ds, hs

    def _chain(self, dfn, ddfn, ds, hs):
        """Gradient and Hessian of f(u) from the f' and f'' temps (ddfn None
        when zero) and the jet of u: f' du and f' ddu + f'' du du^T."""
        grad = [None if d is None else self.temp(f"{dfn} * {d}") for d in ds]
        hess = {}
        for i, j in self.pairs(ds):
            terms = []
            if (i, j) in hs:
                terms.append(f"{dfn} * {hs[i, j]}")
            if ddfn is not None:
                terms.append(f"{ddfn} * ({ds[i]} * {ds[j]})")
            if terms:
                hess[i, j] = self.temp(" + ".join(terms))
        return grad, hess

    def _combine(self, a, b, op):
        if a is None and b is None:
            return None
        if a is None:
            return self.temp(f"-{b}") if op == "-" else b
        if b is None:
            return a
        return self.temp(f"{a} {op} {b}")

    def outputs(self, node, checked=True):
        """Emit node and, when checked, one check that its value, gradient and
        Hessian are finite; return them, as far as this order goes, as lists
        of code."""
        val, ds, hs = self.emit(node)
        if checked:
            finite = dict.fromkeys([val] + [d for d in ds if d is not None] + list(hs.values()))
            # x - x is 0.0 for a finite x and NaN for an infinite or NaN one
            self.lines.append("        if " + " + ".join(f"({c} - {c})" for c in finite)
                              + ' != 0.0: raise DomainError("non-finite result")')
        gradient = ["0.0" if d is None else d for d in ds]
        hessian = [hs.get((min(i, j), max(i, j)), "0.0")
                   for i in range(len(ds)) for j in range(len(ds))] if self.order == 2 else []
        return ([val], gradient, hessian)[:self.order + 1]

    def define(self, result, filename, culprit="_ast", namespace=_COMPILE_GLOBALS):
        """Compile the emitted lines into _fn(_ast, p0, ..., x0, ...) ->
        result. One try block turns a DomainError, an overflow, a math domain
        error or a division by an underflowed square anywhere in them into a
        DomainError naming the expression (the code `culprit`, over `_ast`)
        and the point. The helpers come from namespace."""
        coords = [f"x{i}" for i in range(len(self.coords))]
        signature = ", ".join(["_ast", *(f"p{i}" for i in range(len(self.params))), *coords])
        body = "".join(line + "\n" for line in self.lines) or "        pass\n"
        src = (f"def _fn({signature}):\n    try:\n{body}"
               "    except (DomainError, ArithmeticError, ValueError) as exc:\n"
               f"        raise _wrap_domain(exc, {culprit}, {_tuple_source(coords)}) from None\n"
               f"    return {result}\n")
        made = {}
        exec(compile(src, filename, "exec"), namespace, made)  # noqa: S102 - our own codegen
        return made["_fn"]


def _tuple_source(items):
    return "(" + "".join(item + ", " for item in items) + ")"


def _compile(shape, coordinate_names, parameter_names, order, stacked=False):
    """The code of an expression shape or fused set of shapes (`_CodeGen.define`):
    fn(ast, *parameters, *coords), the parameters led by the shape's
    literals, -> value (order 0), (value, gradient) (order 1) or (value,
    gradient, row-major Hessian) (order 2), as plain float tuples. A fused
    set returns one flat tuple: each expression's value, then its gradient
    (order >= 1), then its row-major Hessian (order 2), in order.

    The stacked variant, of a fused set, is the same code without the
    finiteness lines, run in the array namespace on (N,) coordinate arrays;
    each item of its flat tuple is an (N,) array or a float."""
    gen = _CodeGen(coordinate_names, parameter_names, order)
    if isinstance(shape, tuple):
        flat = []
        for k, node in enumerate(shape):
            gen.lines.append(f"        _k = {k}")  # names the failing expression
            flat += [item for part in gen.outputs(node, not stacked) for item in part]
        return gen.define(_tuple_source(flat), "<stconvex-fused>", "_ast[_k]",
                          _STACKED_GLOBALS if stacked else _COMPILE_GLOBALS)
    (val,), *derivatives = gen.outputs(shape)
    result = ", ".join([val] + [_tuple_source(part) for part in derivatives])
    return gen.define(result, f"<stconvex-order{order}>")


def _shape(ast, literals):
    """The expression, or fused set, with its k-th literal in pre-order
    replaced by Sym('#k'); the literal values are appended to literals."""
    if isinstance(ast, Num):
        literals.append(ast.value)
        return Sym(f"#{len(literals) - 1}")
    if isinstance(ast, Neg):
        return Neg(_shape(ast.child, literals))
    if isinstance(ast, BinOp):
        return BinOp(ast.op, _shape(ast.left, literals), _shape(ast.right, literals))
    if isinstance(ast, Call):
        return Call(ast.func, _shape(ast.arg, literals))
    if isinstance(ast, tuple):
        return tuple(_shape(node, literals) for node in ast)
    return ast


@functools.lru_cache(maxsize=256)
def _shape_code(order, shape, names, parameter_names, stacked):
    return _compile(shape, names, parameter_names, order, stacked)


@functools.lru_cache(maxsize=256)
def _cached_code(order, ast, names, parameter_names, stacked=False):
    literals = []
    shape = _shape(ast, literals)
    literal_names = tuple(f"#{k}" for k in range(len(literals)))
    code = _shape_code(order, shape, names, literal_names + parameter_names, stacked)
    return functools.partial(code, ast, *literals)


def _code(order, ast, coordinate_names, parameters, stacked=False):
    """Compiled code of the expression or fused set, bound to the parameter
    values. It comes from a bounded LRU cache keyed by the order, the AST,
    the coordinate names and the parameter names, so equal expressions share
    code however often they are re-parsed, whichever entry point asks and
    whatever the values. On a miss, a second such cache, keyed by the
    expression's shape (each literal a parameter '#k', listed before the
    others), gives the code, to which the AST and its literal values bind,
    so an AST that differs from a cached one only in its numbers costs no
    compile. The stacked variant has its own key, compiled on first use."""
    fn = _cached_code(order, ast, tuple(coordinate_names), tuple(parameters or ()), stacked)
    return functools.partial(fn, *map(float, parameters.values())) if parameters else fn


def compile_value(ast, coordinate_names, parameters=None):
    """fn(*coords) -> value; for a fused set, their values. Parameter values bind now."""
    return _code(0, ast, coordinate_names, parameters)


def compile_jet1(ast, coordinate_names, parameters=None):
    """fn(*coords) -> (value, gradient tuple); for a fused set, each one's
    value and gradient, flat, in order. The parameter values bind now."""
    return _code(1, ast, coordinate_names, parameters)


def compile_jet2(ast, coordinate_names, parameters=None):
    """fn(*coords) -> (value, gradient tuple, row-major Hessian tuple); for a
    fused set, each one's value, gradient and Hessian, flat, in order."""
    return _code(2, ast, coordinate_names, parameters)


def _width_error(width, names):
    return ValueError(f"{width} coordinate values for the {len(names)} coordinates {names}")


def _run(order, ast, coordinate_names, coordinate_values, parameters):
    """Result of the compiled code at the point, given the parameter values."""
    names = tuple(coordinate_names)
    values = tuple(float(v) for v in coordinate_values)
    if len(values) != len(names):
        raise _width_error(len(values), names)
    fn = _cached_code(order, ast, names, tuple(parameters or ()), False)
    return fn(*map(float, parameters.values()), *values) if parameters else fn(*values)


def eval_block(order, fused, coordinate_names, points, parameters=None) -> np.ndarray:
    """The flat outputs of a fused set (a tuple of ASTs) at the N rows of an
    (N, d) points array, as a (K, N) block, from one call of the stacked
    code. Raises nothing for a point: a column is non-finite wherever the
    scalar code raises at that point, and may be non-finite where it does
    not (a NaN from inf - inf, 0*inf or inf/inf that the scalar power turns
    into 1 as a base^0 or a 1^exponent), so a caller re-runs the scalar code
    at a non-finite column and keeps its values. Elsewhere each entry equals
    the scalar code's to the bit."""
    names = tuple(coordinate_names)
    points = np.asarray(points, dtype=float)
    if points.shape[-1] != len(names):
        raise _width_error(points.shape[-1], names)
    with np.errstate(all="ignore"):  # the non-finite entries are the result
        outputs = _code(order, fused, names, parameters, stacked=True)(*points.T)
    block = np.empty((len(outputs), len(points)))
    for row, output in zip(block, outputs):
        row[...] = output
    return block


def _stacked_jet2(ast, coordinate_names, points, parameters):
    """eval_jet2 at each row of an (N, d) array: the stacked code's block,
    with each non-finite column replaced, in row order, by the scalar code's
    jet at its point, which raises there if the point fails alone."""
    block = eval_block(2, (ast,), coordinate_names, points, parameters)
    for column in np.flatnonzero(~np.isfinite(block).all(axis=0)).tolist():
        value, gradient, hessian = _run(2, ast, coordinate_names, points[column], parameters)
        block[:, column] = (value, *gradient, *hessian)
    n = len(coordinate_names)
    rows = block.T
    return Jet2(rows[:, 0], rows[:, 1:n + 1], rows[:, n + 1:].reshape(-1, n, n))


def eval_jet2(ast, coordinate_names, coordinate_values, parameters=None) -> Jet2:
    """Value, gradient, and Hessian of an expression at a point.

    Coordinates are seeded as jet variables in the given order; parameters
    are constants. Raises DomainError (with the expression attached) if
    the point is outside a function's domain or a result is not finite.

    An (N, d) array of points gives stacks, value (N,), gradient (N, d) and
    Hessian (N, d, d), from one stacked evaluation; each row equals the
    point's own jet to the bit, and a failure raises the error of the first
    failing point's own call. An array of any other shape is refused.
    """
    if isinstance(coordinate_values, np.ndarray):
        if coordinate_values.ndim != 2:
            raise ValueError(f"a coordinate array must be (N, d), not {coordinate_values.shape}")
        return _stacked_jet2(ast, coordinate_names, coordinate_values, parameters)
    value, gradient, hessian = _run(2, ast, coordinate_names, coordinate_values, parameters)
    n = len(gradient)
    return Jet2(value, np.array(gradient), np.array(hessian).reshape(n, n))


def eval_jet1(ast, coordinate_names, coordinate_values, parameters=None):
    """(value, gradient tuple) at a point, or a fused set's flat tuple, from
    the compiled order-1 code; used where second derivatives are not needed."""
    return _run(1, ast, coordinate_names, coordinate_values, parameters)
