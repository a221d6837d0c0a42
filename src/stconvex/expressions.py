"""Arithmetic expression DSL with exact forward-mode differentiation.

Expressions are the carrier for metric components and scalar fields. The
grammar is a fixed arithmetic grammar (no conditionals, no user functions)
so that every expression has exact first and second derivatives obtained by
jet arithmetic rather than finite differencing:

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParseError, UnknownSymbol

FUNCTIONS = ("sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "log", "sqrt", "abs")


# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Sym:
    name: str


@dataclass(frozen=True)
class Neg:
    child: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Num | Sym | Neg | BinOp | Call


def symbols_in(ast) -> frozenset[str]:
    """Names of all symbols referenced by the expression."""
    if isinstance(ast, Sym):
        return frozenset((ast.name,))
    if isinstance(ast, Neg):
        return symbols_in(ast.child)
    if isinstance(ast, BinOp):
        return symbols_in(ast.left) | symbols_in(ast.right)
    if isinstance(ast, Call):
        return symbols_in(ast.arg)
    return frozenset()


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
            return Num(float(tok.text))
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
# Jet arithmetic
# --------------------------------------------------------------------------

# (f, f', f'') tables used by both jet orders
def _d_tan(v):
    t = math.tan(v)
    return 1.0 + t * t


def _dd_tan(v):
    t = math.tan(v)
    return 2.0 * t * (1.0 + t * t)


def _d_tanh(v):
    t = math.tanh(v)
    return 1.0 - t * t


def _dd_tanh(v):
    t = math.tanh(v)
    return -2.0 * t * (1.0 - t * t)


def _checked_log(v):
    if v <= 0.0:
        raise DomainError(f"log of non-positive value {v!r}")
    return math.log(v)


def _checked_sqrt(v):
    if v <= 0.0:
        raise DomainError(f"sqrt of non-positive value {v!r} (derivative singular at 0)")
    return math.sqrt(v)


def _checked_abs_d(v):
    if v == 0.0:
        raise DomainError("abs is not differentiable at 0")
    return math.copysign(1.0, v)


_TABLE = {
    "sin": (math.sin, math.cos, lambda v: -math.sin(v)),
    "cos": (math.cos, lambda v: -math.sin(v), lambda v: -math.cos(v)),
    "tan": (math.tan, _d_tan, _dd_tan),
    "sinh": (math.sinh, math.cosh, math.sinh),
    "cosh": (math.cosh, math.sinh, math.cosh),
    "tanh": (math.tanh, _d_tanh, _dd_tanh),
    "exp": (math.exp, math.exp, math.exp),
    "log": (_checked_log, lambda v: 1.0 / v, lambda v: -1.0 / (v * v)),
    "sqrt": (_checked_sqrt, lambda v: 0.5 / math.sqrt(v), lambda v: -0.25 / (v * math.sqrt(v))),
    "abs": (abs, _checked_abs_d, lambda v: 0.0),
}


class Jet2:
    """Second-order jet: value, gradient, and symmetric Hessian over n variables.

    Arithmetic follows the exact second-order chain and product rules, so
    derivatives are exact to roundoff for any composition of the supported
    elementary functions. Entries for variables an expression does not
    reference stay exactly zero.
    """

    __slots__ = ("value", "gradient", "hessian")

    def __init__(self, value, gradient, hessian):
        self.value = float(value)
        self.gradient = gradient
        self.hessian = hessian

    @classmethod
    def variable(cls, value, index, nvars):
        g = np.zeros(nvars)
        g[index] = 1.0
        return cls(value, g, np.zeros((nvars, nvars)))

    @classmethod
    def constant(cls, value, nvars):
        return cls(value, np.zeros(nvars), np.zeros((nvars, nvars)))

    def _coerce(self, other):
        if isinstance(other, Jet2):
            return other
        return Jet2.constant(float(other), len(self.gradient))

    def __add__(self, other):
        o = self._coerce(other)
        return Jet2(self.value + o.value, self.gradient + o.gradient, self.hessian + o.hessian)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.value, -self.gradient, -self.hessian)

    def __sub__(self, other):
        o = self._coerce(other)
        return Jet2(self.value - o.value, self.gradient - o.gradient, self.hessian - o.hessian)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        cross = np.outer(self.gradient, o.gradient)
        # (cross + cross.T) first, so the Hessian stays symmetric to the bit
        return Jet2(
            self.value * o.value,
            self.value * o.gradient + o.value * self.gradient,
            self.value * o.hessian + o.value * self.hessian + (cross + cross.T),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.value == 0.0:
            raise DomainError("division by zero")
        return self * o._reciprocal()

    def __rtruediv__(self, other):
        if self.value == 0.0:
            raise DomainError("division by zero")
        return self._coerce(other) * self._reciprocal()

    def _reciprocal(self):
        v = self.value
        return self._chain(1.0 / v, -1.0 / (v * v), 2.0 / (v * v * v))

    def _chain(self, f, df, ddf):
        outer = np.outer(self.gradient, self.gradient)
        return Jet2(f, df * self.gradient, df * self.hessian + ddf * outer)

    def apply(self, func: str):
        f, df, ddf = _TABLE[func]
        v = self.value
        return self._chain(f(v), df(v), ddf(v))

    def is_constant(self) -> bool:
        return not self.gradient.any() and not self.hessian.any()

    def __pow__(self, other):
        if isinstance(other, Jet2) and not other.is_constant():
            if self.value <= 0.0:
                raise DomainError(
                    f"power with non-constant exponent requires a positive base, got {self.value!r}")
            return (other * self.apply("log")).apply("exp")
        k = other.value if isinstance(other, Jet2) else float(other)
        return _power_jet(self, k)

    def __rpow__(self, other):
        base = self._coerce(other)
        return base.__pow__(self)


def _power_jet(jet, k: float):
    v = jet.value
    if k == 0.0:
        return Jet2.constant(1.0, len(jet.gradient))
    if float(k).is_integer():
        k = int(k)
        if v == 0.0 and k < 0:
            raise DomainError("division by zero in negative integer power")
        f = v ** k
        df = k * v ** (k - 1) if (v != 0.0 or k >= 1) else 0.0
        ddf = k * (k - 1) * v ** (k - 2) if (v != 0.0 or k >= 2) else 0.0
        return jet._chain(f, df, ddf)
    if v <= 0.0:
        raise DomainError(f"non-integer power of non-positive base {v!r}")
    return jet._chain(v ** k, k * v ** (k - 1.0), k * (k - 1.0) * v ** (k - 2.0))


class Jet1:
    """First-order jet over plain float tuples for interpreted evaluation;
    the metric hot path uses compile_jet1 closures instead."""

    __slots__ = ("value", "gradient")

    def __init__(self, value, gradient):
        self.value = value
        self.gradient = gradient

    def _coerce(self, other):
        if isinstance(other, Jet1):
            return other
        return Jet1(float(other), (0.0,) * len(self.gradient))

    def __add__(self, other):
        o = self._coerce(other)
        return Jet1(self.value + o.value, tuple(a + b for a, b in zip(self.gradient, o.gradient)))

    __radd__ = __add__

    def __neg__(self):
        return Jet1(-self.value, tuple(-a for a in self.gradient))

    def __sub__(self, other):
        o = self._coerce(other)
        return Jet1(self.value - o.value, tuple(a - b for a, b in zip(self.gradient, o.gradient)))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        u, w = self.value, o.value
        return Jet1(u * w, tuple(u * b + w * a for a, b in zip(self.gradient, o.gradient)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.value == 0.0:
            raise DomainError("division by zero")
        u, w = self.value, o.value
        inv = 1.0 / w
        return Jet1(u * inv, tuple((a * w - u * b) * inv * inv
                                   for a, b in zip(self.gradient, o.gradient)))

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def _chain(self, f, df):
        return Jet1(f, tuple(df * a for a in self.gradient))

    def apply(self, func: str):
        f, df, _ = _TABLE[func]
        v = self.value
        return self._chain(f(v), df(v))

    def is_constant(self) -> bool:
        return not any(self.gradient)

    def __pow__(self, other):
        if isinstance(other, Jet1) and not other.is_constant():
            if self.value <= 0.0:
                raise DomainError(
                    f"power with non-constant exponent requires a positive base, got {self.value!r}")
            return (other * self.apply("log")).apply("exp")
        k = other.value if isinstance(other, Jet1) else float(other)
        v = self.value
        if k == 0.0:
            return Jet1(1.0, (0.0,) * len(self.gradient))
        if float(k).is_integer():
            k = int(k)
            if v == 0.0 and k < 0:
                raise DomainError("division by zero in negative integer power")
            df = k * v ** (k - 1) if (v != 0.0 or k >= 1) else 0.0
            return self._chain(v ** k, df)
        if v <= 0.0:
            raise DomainError(f"non-integer power of non-positive base {v!r}")
        return self._chain(v ** k, k * v ** (k - 1.0))

    def __rpow__(self, other):
        return self._coerce(other).__pow__(self)


def _eval(ast, env):
    """Evaluate an AST in an environment mapping symbol names to jets/floats.

    Pure-number subtrees fold to plain floats, which keeps untouched
    derivative entries exactly zero and the hot path cheap.
    """
    if isinstance(ast, Num):
        return ast.value
    if isinstance(ast, Sym):
        return env[ast.name]
    if isinstance(ast, Neg):
        return -_eval(ast.child, env)
    if isinstance(ast, Call):
        arg = _eval(ast.arg, env)
        if isinstance(arg, float):
            return _TABLE[ast.func][0](arg)
        return arg.apply(ast.func)
    op = ast.op
    left = _eval(ast.left, env)
    right = _eval(ast.right, env)
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if isinstance(left, float) and isinstance(right, float):
            if right == 0.0:
                raise DomainError("division by zero")
            return left / right
        return left / right
    # op == "^"
    if isinstance(left, float) and isinstance(right, float):
        if left < 0.0 and not float(right).is_integer():
            raise DomainError(f"non-integer power of non-positive base {left!r}")
        if left == 0.0 and right < 0.0:
            raise DomainError("division by zero in negative power")
        return left ** right
    return left ** right


def _wrap_domain(exc, ast, values):
    return DomainError(f"{exc} while evaluating '{to_source(ast)}' at {tuple(values)}")


def _evaluate(ast, env, parameters, values):
    """_eval with the parameters bound as constants; an out-of-domain
    evaluation or a float overflow raises DomainError naming the expression."""
    for pname, pval in (parameters or {}).items():
        env[pname] = float(pval)
    try:
        return _eval(ast, env)
    except (DomainError, OverflowError) as exc:
        raise _wrap_domain(exc, ast, values) from None
    except KeyError as exc:
        raise UnknownSymbol(exc.args[0]) from None


def eval_jet2(ast, coordinate_names, coordinate_values, parameters=None) -> Jet2:
    """Value, gradient, and Hessian of an expression at a point.

    Coordinates are seeded as jet variables in the given order; parameters
    bind as constants. Raises DomainError (with the expression attached) if
    the point is outside an elementary function's domain.
    """
    names = tuple(coordinate_names)
    values = tuple(float(v) for v in coordinate_values)
    n = len(names)
    env = {name: Jet2.variable(v, i, n) for i, (name, v) in enumerate(zip(names, values))}
    out = _evaluate(ast, env, parameters, values)
    if isinstance(out, float):
        out = Jet2.constant(out, n)
    if not (math.isfinite(out.value) and np.isfinite(out.gradient).all()
            and np.isfinite(out.hessian).all()):
        raise _wrap_domain("non-finite result", ast, values)
    return out


def eval_jet1(ast, coordinate_names, coordinate_values, parameters=None) -> Jet1:
    """Value and gradient only; used where second derivatives are not needed."""
    names = tuple(coordinate_names)
    values = tuple(float(v) for v in coordinate_values)
    n = len(names)
    zeros = (0.0,) * n
    env = {}
    for i, (name, v) in enumerate(zip(names, values)):
        g = zeros[:i] + (1.0,) + zeros[i + 1:]
        env[name] = Jet1(float(v), g)
    out = _evaluate(ast, env, parameters, values)
    if isinstance(out, float):
        out = Jet1(out, zeros)
    if not (math.isfinite(out.value) and all(math.isfinite(g) for g in out.gradient)):
        raise _wrap_domain("non-finite result", ast, values)
    return out


def eval_value(ast, coordinate_names, coordinate_values, parameters=None) -> float:
    """Plain numeric evaluation (no derivatives)."""
    env = {name: float(v) for name, v in zip(coordinate_names, coordinate_values)}
    out = _evaluate(ast, env, parameters, coordinate_values)
    value = out.value if not isinstance(out, float) else out
    if not math.isfinite(value):
        raise _wrap_domain("non-finite result", ast, coordinate_values)
    return value


# --------------------------------------------------------------------------
# Compilation to plain-float closures (hot paths: integrators, grid scans)
# --------------------------------------------------------------------------

def _pow_vd(base, k):
    """(base**k, d/dbase base**k) for a constant exponent k."""
    if float(k).is_integer():
        k = int(k)
        if base == 0.0:
            if k < 0:
                raise DomainError("division by zero in negative integer power")
            return (1.0, 0.0) if k == 0 else (0.0, 1.0 if k == 1 else 0.0)
        return base ** k, k * base ** (k - 1)
    if base <= 0.0:
        raise DomainError(f"non-integer power of non-positive base {base!r}")
    return base ** k, k * base ** (k - 1.0)


def _sign_nonzero(v):
    if v == 0.0:
        raise DomainError("abs is not differentiable at 0")
    return math.copysign(1.0, v)


def _nonzero(v):
    if v == 0.0:
        raise DomainError("division by zero")
    return v


_COMPILE_GLOBALS = {
    "__builtins__": {},
    "math": math,
    "_pow_vd": _pow_vd,
    "_sign_nonzero": _sign_nonzero,
    "_nonzero": _nonzero,
    "_checked_log": _checked_log,
    "_checked_sqrt": _checked_sqrt,
    "OverflowError": OverflowError,
    "_wrap_domain": _wrap_domain,
}

# value expression, and the (f', needs-temp) derivative recipe per function
_CODEGEN_CALLS = {
    "sin": ("math.sin({a})", "math.cos({a})"),
    "cos": ("math.cos({a})", "-math.sin({a})"),
    "tan": ("math.tan({a})", "1.0 + {v}*{v}"),
    "sinh": ("math.sinh({a})", "math.cosh({a})"),
    "cosh": ("math.cosh({a})", "math.sinh({a})"),
    "tanh": ("math.tanh({a})", "1.0 - {v}*{v}"),
    "exp": ("math.exp({a})", "{v}"),
    "log": ("_checked_log({a})", "1.0/{a}"),
    "sqrt": ("_checked_sqrt({a})", "0.5/{v}"),
    "abs": ("abs({a})", "_sign_nonzero({a})"),
}


class _CodeGen:
    """Emit unrolled first-order forward-mode code for one expression."""

    def __init__(self, coord_names, parameters):
        self.coords = tuple(coord_names)
        self.params = {k: float(v) for k, v in (parameters or {}).items()}
        self.lines = []
        self.counter = 0

    def temp(self, expr):
        name = f"v{self.counter}"
        self.counter += 1
        self.lines.append(f"        {name} = {expr}")
        return name

    def emit(self, node):
        """Return (value name/literal, derivative exprs with None for exact zero)."""
        n = len(self.coords)
        if isinstance(node, Num):
            return repr(node.value), [None] * n
        if isinstance(node, Sym):
            if node.name in self.params:
                return repr(self.params[node.name]), [None] * n
            i = self.coords.index(node.name)
            ds = [None] * n
            ds[i] = "1.0"
            return f"x{i}", ds
        if isinstance(node, Neg):
            val, ds = self.emit(node.child)
            return self.temp(f"-{val}"), [None if d is None else self.temp(f"-{d}") for d in ds]
        if isinstance(node, Call):
            aval, ads = self.emit(node.arg)
            value_tpl, deriv_tpl = _CODEGEN_CALLS[node.func]
            val = self.temp(value_tpl.format(a=aval))
            if all(d is None for d in ads):
                return val, ads
            dfn = self.temp(deriv_tpl.format(a=aval, v=val))
            return val, [None if d is None else self.temp(f"{dfn} * {d}") for d in ads]
        # BinOp
        if node.op == "^":
            rval_probe = symbols_in(node.right) & set(self.coords)
            if rval_probe:
                # non-constant exponent: rewrite as exp(b * log(a))
                return self.emit(Call("exp", BinOp("*", node.right, Call("log", node.left))))
            bval, bds = self.emit(node.left)
            kval, _ = self.emit(node.right)
            pair = self.temp(f"_pow_vd({bval}, {kval})")
            val = self.temp(f"{pair}[0]")
            if all(d is None for d in bds):
                return val, bds
            dfn = self.temp(f"{pair}[1]")
            return val, [None if d is None else self.temp(f"{dfn} * {d}") for d in bds]
        lval, lds = self.emit(node.left)
        rval, rds = self.emit(node.right)
        if node.op == "+":
            val = self.temp(f"{lval} + {rval}")
            ds = [self._combine(a, b, "+") for a, b in zip(lds, rds)]
            return val, ds
        if node.op == "-":
            val = self.temp(f"{lval} - {rval}")
            ds = [self._combine(a, b, "-") for a, b in zip(lds, rds)]
            return val, ds
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
            return val, ds
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
        return val, ds

    def _combine(self, a, b, op):
        if a is None and b is None:
            return None
        if a is None:
            return self.temp(f"-{b}") if op == "-" else b
        if b is None:
            return a
        return self.temp(f"{a} {op} {b}")

    def define(self, ast, result, filename):
        """Compile the emitted lines into _fn(x0, ...) -> result; one try block
        turns an overflow anywhere in them into a DomainError, as in _evaluate."""
        args = ", ".join(f"x{i}" for i in range(len(self.coords)))
        point = f"({args}{',' if self.coords else ''})"
        body = "".join(line + "\n" for line in self.lines) or "        pass\n"
        src = (f"def _fn({args}):\n    try:\n{body}"
               "    except OverflowError as exc:\n"
               f"        raise _wrap_domain(exc, _ast, {point}) from None\n"
               f"    return {result}\n")
        ns = dict(_COMPILE_GLOBALS, _ast=ast)
        exec(compile(src, filename, "exec"), ns)  # noqa: S102 - our own codegen
        return ns["_fn"]


def compile_jet1(ast, coordinate_names, parameters=None):
    """Compile to fn(*coords) -> (value, gradient tuple); parameters bind now."""
    gen = _CodeGen(coordinate_names, parameters)
    val, ds = gen.emit(ast)
    grad = "".join(("0.0" if d is None else d) + ", " for d in ds)
    return gen.define(ast, f"{val}, ({grad})", "<stconvex-jet1>")


def compile_value(ast, coordinate_names, parameters=None):
    """Compile to fn(*coords) -> value; parameters bind now."""
    gen = _CodeGen(coordinate_names, parameters)
    val, _ = gen.emit(ast)
    return gen.define(ast, val, "<stconvex-value>")
