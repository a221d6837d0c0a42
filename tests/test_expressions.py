"""Parser, printer, and jet tests for the expression DSL."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stconvex.errors import DomainError, ParseError, UnknownSymbol
from stconvex.expressions import (FUNCTIONS, BinOp, Call, Neg, Num, Sym, _cached_code,
                                  compile_jet1, compile_value, eval_jet1, eval_jet2,
                                  eval_value, parse, to_source)

from conftest import fd_gradient, fd_hessian

XY = ("x", "y")


# --------------------------------------------------------------------------
# parsing
# --------------------------------------------------------------------------

def test_precedence_example():
    ast = parse("x^2 - a*t^2", ("x", "t", "a"))
    assert ast == BinOp("-", BinOp("^", Sym("x"), Num(2.0)),
                        BinOp("*", Sym("a"), BinOp("^", Sym("t"), Num(2.0))))


def test_division_precedence_example():
    ast = parse("1 - 2*M/r", ("r", "M"))
    assert ast == BinOp("-", Num(1.0),
                        BinOp("/", BinOp("*", Num(2.0), Sym("M")), Sym("r")))


def test_parse_error_column():
    with pytest.raises(ParseError) as info:
        parse("x +", ("x",))
    assert info.value.column == 4


def test_unknown_symbol_named():
    with pytest.raises(UnknownSymbol) as info:
        parse("x + q", ("x",))
    assert info.value.name == "q"


def test_unknown_function():
    with pytest.raises(UnknownSymbol):
        parse("foo(x)", ("x",))


def test_left_associativity():
    assert parse("1 - 2 - 3", ()) == BinOp("-", BinOp("-", Num(1.0), Num(2.0)), Num(3.0))


def test_power_above_unary_minus():
    assert parse("-x^2", ("x",)) == Neg(BinOp("^", Sym("x"), Num(2.0)))


def test_power_right_associative():
    assert parse("x^2^3", ("x",)) == BinOp("^", Sym("x"), BinOp("^", Num(2.0), Num(3.0)))


def test_unbalanced_paren():
    with pytest.raises(ParseError):
        parse("sin(x", ("x",))


def test_empty_expression():
    with pytest.raises(ParseError):
        parse("   ", ("x",))


def test_scientific_literals():
    assert parse("1.5e-3", ()) == Num(1.5e-3)
    assert parse("2E+4", ()) == Num(2e4)


# --------------------------------------------------------------------------
# printer round-trip (fuzzed)
# --------------------------------------------------------------------------

_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False).map(Num),
    st.sampled_from([Sym("x"), Sym("y")]),
)


def _extend(children):
    return st.one_of(
        children.map(Neg),
        st.tuples(st.sampled_from("+-*/^"), children, children).map(
            lambda t: BinOp(t[0], t[1], t[2])),
        st.tuples(st.sampled_from(("sin", "cos", "tan", "sinh", "cosh", "tanh",
                                   "exp", "log", "sqrt", "abs")), children).map(
            lambda t: Call(t[0], t[1])),
    )


_asts = st.recursive(_leaf, _extend, max_leaves=25)


@settings(max_examples=1000, deadline=None)
@given(_asts)
def test_parse_print_round_trip(ast):
    assert parse(to_source(ast), XY) == ast


# --------------------------------------------------------------------------
# jets: examples and exactness
# --------------------------------------------------------------------------

def test_jet_square():
    jet = eval_jet2(parse("x^2", ("x",)), ("x",), (3.0,))
    assert jet.value == 9.0
    assert jet.gradient.tolist() == [6.0]
    assert jet.hessian.tolist() == [[2.0]]


def test_jet_product_example():
    jet = eval_jet2(parse("sin(x)*y", XY), XY, (0.0, 2.0))
    assert jet.value == 0.0
    assert jet.gradient.tolist() == [2.0, 0.0]
    assert jet.hessian.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_sqrt_domain_error_at_zero():
    with pytest.raises(DomainError):
        eval_jet2(parse("sqrt(x)", ("x",)), ("x",), (0.0,))


def test_log_domain_error():
    with pytest.raises(DomainError):
        eval_jet2(parse("log(x)", ("x",)), ("x",), (-1.0,))


def test_division_by_zero():
    with pytest.raises(DomainError):
        eval_jet2(parse("1/x", ("x",)), ("x",), (0.0,))


def test_untouched_coordinates_exactly_zero():
    jet = eval_jet2(parse("exp(x)*x", XY), XY, (0.7, 123.0))
    assert jet.gradient[1] == 0.0
    assert not jet.hessian[1].any()
    assert not jet.hessian[:, 1].any()


def test_parameters_bind_as_constants():
    jet = eval_jet2(parse("M*x^2", ("x", "M")), ("x",), (2.0,), {"M": 3.0})
    assert jet.value == 12.0
    assert jet.gradient.tolist() == [12.0]


def _compiled_jet1(ast, names, point):
    return compile_jet1(ast, names)(*point)


def _compiled_value(ast, names, point):
    return compile_value(ast, names)(*point)


#: evaluator -> (derivative order, fn(ast, names, point))
_EVALUATORS = {
    "eval_jet2": (2, eval_jet2),
    "eval_jet1": (1, eval_jet1),
    "eval_value": (0, eval_value),
    "compile_jet1": (1, _compiled_jet1),
    "compile_value": (0, _compiled_value),
}

#: rule -> (expression, coordinates, point, DomainError message, lowest
#: derivative order the rule applies at)
_DOMAIN_RULES = {
    "overflow": ("sinh(sinh(3*x)^3)", ("x",), (1.0,), "overflow|range", 0),
    "division-by-zero": ("1/x", ("x",), (0.0,), "division by zero", 0),
    "abs-kink": ("abs(x)", ("x",), (0.0,), "abs is not differentiable at 0", 1),
    "sqrt-at-zero": ("sqrt(x)", ("x",), (0.0,), "sqrt of non-positive value", 0),
    "log-of-negative": ("log(x)", ("x",), (-1.0,), "log of non-positive value", 0),
    "negative-power-of-zero": ("x^-2", ("x",), (0.0,), "division by zero", 0),
    "non-integer-power-of-negative-base": ("x^0.5", ("x",), (-1.0,),
                                           "non-integer power of non-positive base", 0),
    "non-constant-exponent-of-non-positive-base": ("x^y", XY, (-2.0, 3.0),
                                                   "log of non-positive value", 0),
    # d(x/y)/dy divides by y*y, which underflows to 0 while y itself does not
    "underflowed-denominator-square": ("x/y", XY, (1.0, 1e-200), "division by zero", 1),
}


# the overflow rows keep bare evaluator ids, so their test ids stay stable
@pytest.mark.parametrize("rule, evaluator", [
    pytest.param(rule, name, id=name if rule == "overflow" else f"{name}-{rule}")
    for rule in _DOMAIN_RULES for name in _EVALUATORS])
def test_overflow_is_domain_error(rule, evaluator):
    """Every domain rule, float overflow included, raises a DomainError that
    names the expression in all five evaluators, never a bare OverflowError.
    A rule of the derivative leaves the value finite: abs(0) itself is 0."""
    text, names, point, message, lowest_order = _DOMAIN_RULES[rule]
    order, evaluate = _EVALUATORS[evaluator]
    ast = parse(text, names)
    if order < lowest_order:
        assert math.isfinite(evaluate(ast, names, point))
        return
    with pytest.raises(DomainError, match=message) as info:
        evaluate(ast, names, point)
    assert f"while evaluating '{to_source(ast)}' at {point}" in str(info.value)


@pytest.mark.parametrize("k, value, slope, curvature", [
    (0.0, 1.0, 0.0, 0.0), (1.0, 0.0, 1.0, 0.0), (2.0, 0.0, 0.0, 2.0), (3.0, 0.0, 0.0, 0.0)])
def test_integer_power_jet_at_zero(k, value, slope, curvature):
    jet = eval_jet2(BinOp("^", Sym("x"), Num(k)), ("x",), (0.0,))
    assert (jet.value, jet.gradient.tolist(), jet.hessian.tolist()) == \
        (value, [slope], [[curvature]])


def test_negative_integer_power_at_zero_raises():
    with pytest.raises(DomainError, match="division by zero"):
        eval_jet2(parse("x^-1", ("x",)), ("x",), (0.0,))


@pytest.mark.parametrize("evaluate", [eval_jet2, eval_jet1, eval_value])
def test_infinite_literal_is_domain_error(evaluate):
    with pytest.raises(DomainError, match="non-finite result"):
        evaluate(parse("1e999*x", ("x",)), ("x",), (1.0,))


@pytest.mark.parametrize("evaluate", [eval_jet2, eval_jet1, eval_value])
@pytest.mark.parametrize("values", [(3.0,), (3.0, 4.0, 5.0)], ids=["missing", "extra"])
def test_coordinate_count_must_match_names(evaluate, values):
    with pytest.raises(ValueError, match="coordinate values for the 2 coordinates"):
        evaluate(parse("x*x", XY), XY, values)


def test_nonconstant_exponent_needs_positive_base():
    ast = parse("x^y", XY)
    jet = eval_jet2(ast, XY, (2.0, 3.0))
    assert jet.value == pytest.approx(8.0)
    with pytest.raises(DomainError):
        eval_jet2(ast, XY, (-2.0, 3.0))


def test_integer_power_of_negative_base():
    jet = eval_jet2(parse("x^3", ("x",)), ("x",), (-2.0,))
    assert jet.value == -8.0
    assert jet.gradient.tolist() == [12.0]
    assert jet.hessian.tolist() == [[-12.0]]


def test_hessian_exactly_symmetric():
    ast = parse("exp(x*y)*sin(x - y^2)/(1 + x^2)", XY)
    jet = eval_jet2(ast, XY, (0.4, -0.3))
    assert jet.hessian[0, 1] == jet.hessian[1, 0]


# --------------------------------------------------------------------------
# jets vs finite differences (fuzzed)
# --------------------------------------------------------------------------

_safe_leaf = st.one_of(
    st.floats(min_value=0.1, max_value=3.0, allow_nan=False).map(Num),
    st.sampled_from([Sym("x"), Sym("y")]),
)


def _safe_extend(children):
    return st.one_of(
        children.map(Neg),
        st.tuples(st.sampled_from("+-*/"), children, children).map(
            lambda t: BinOp(t[0], t[1], t[2])),
        st.tuples(children, st.sampled_from((2.0, 3.0))).map(
            lambda t: BinOp("^", t[0], Num(t[1]))),
        st.tuples(st.sampled_from(("sin", "cos", "sinh", "cosh", "tanh", "exp")),
                  children).map(lambda t: Call(t[0], t[1])),
        # sqrt and log on a positive argument, 0.5 + u^2
        st.tuples(st.sampled_from(("sqrt", "log")), children).map(
            lambda t: Call(t[0], BinOp("+", Num(0.5), BinOp("^", t[1], Num(2.0))))),
    )


_safe_asts = st.recursive(_safe_leaf, _safe_extend, max_leaves=10)

#: 1/(1.5625 - y) at y = 1.5, 0.0625 from its pole: one 4th-order stencil at
#: h = 1e-3 misses the gradient 256 by 2.6e-7 relative
_NEAR_POLE = BinOp("/", Num(1.0), BinOp("-", Num(1.5625), Sym("y")))


def _fd_reference(stencil, fn, point):
    """A Richardson pair of 4th-order stencils at h = 1e-3 and 5e-4: cancelling
    the h^4 term converges near a pole, where one stencil does not."""
    x = np.array(point)
    return (16.0 * stencil(fn, x, h=5e-4) - stencil(fn, x, h=1e-3)) / 15.0


@settings(max_examples=150, deadline=None)
@given(_safe_asts, st.floats(0.4, 1.6), st.floats(0.4, 1.6))
@example(_NEAR_POLE, 1.0, 1.5)
def test_jets_match_finite_differences(ast, x, y):
    point = (x, y)
    try:
        jet = eval_jet2(ast, XY, point)
    except DomainError:
        return
    if abs(jet.value) > 1e4 or np.abs(jet.gradient).max() > 1e4 \
            or np.abs(jet.hessian).max() > 1e4:
        return

    def fn(q):
        return eval_value(ast, XY, tuple(q))

    grad = _fd_reference(fd_gradient, fn, point)
    hess = _fd_reference(fd_hessian, fn, point)
    scale_g = 1.0 + np.abs(jet.gradient)
    scale_h = 1.0 + np.abs(jet.hessian)
    assert (np.abs(jet.gradient - grad) / scale_g).max() < 1e-7
    assert (np.abs(jet.hessian - hess) / scale_h).max() < 1e-6


# --------------------------------------------------------------------------
# jet algebra laws
# --------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(_safe_asts, _safe_asts, st.floats(0.4, 1.6), st.floats(0.4, 1.6))
def test_product_rule_law(u_ast, v_ast, x, y):
    point = (x, y)
    try:
        u = eval_jet2(u_ast, XY, point)
        v = eval_jet2(v_ast, XY, point)
        w = eval_jet2(BinOp("*", u_ast, v_ast), XY, point)
    except DomainError:
        return
    cross = np.outer(u.gradient, v.gradient)
    assert w.value == pytest.approx(u.value * v.value, rel=1e-12, abs=1e-12)
    assert np.allclose(w.gradient, u.value * v.gradient + v.value * u.gradient,
                       rtol=1e-12, atol=1e-12)
    assert np.allclose(w.hessian,
                       u.value * v.hessian + v.value * u.hessian + cross + cross.T,
                       rtol=1e-12, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(_safe_asts, _safe_asts, st.floats(0.4, 1.6), st.floats(0.4, 1.6),
       st.floats(-2.0, 2.0))
def test_linearity_law(u_ast, v_ast, x, y, a):
    point = (x, y)
    combo = BinOp("+", BinOp("*", Num(a), u_ast), v_ast)
    try:
        u = eval_jet2(u_ast, XY, point)
        v = eval_jet2(v_ast, XY, point)
        w = eval_jet2(combo, XY, point)
    except DomainError:
        return
    assert w.value == pytest.approx(a * u.value + v.value, rel=1e-12, abs=1e-12)
    assert np.allclose(w.gradient, a * u.gradient + v.gradient, rtol=1e-12, atol=1e-12)
    assert np.allclose(w.hessian, a * u.hessian + v.hessian, rtol=1e-12, atol=1e-12)


# --------------------------------------------------------------------------
# one emitter: every order agrees with finite differences and with the others
# --------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(_safe_asts, st.floats(0.4, 1.6), st.floats(0.4, 1.6))
@example(_NEAR_POLE, 1.0, 1.5)
def test_compiled_jet1_matches_finite_differences(ast, x, y):
    point = (x, y)
    try:
        value, gradient = compile_jet1(ast, XY)(*point)
    except DomainError:
        for evaluate in (eval_jet1, _compiled_value):
            with pytest.raises(DomainError):
                evaluate(ast, XY, point)
        return
    if not all(abs(v) <= 1e4 for v in (value, *gradient)):
        return
    value_fn = compile_value(ast, XY)
    jet = eval_jet1(ast, XY, point)
    assert value_fn(*point) == value == jet.value
    assert jet.gradient == gradient
    fd = _fd_reference(fd_gradient, lambda q: value_fn(*q), point)
    assert (np.abs(np.array(gradient) - fd) / (1.0 + np.abs(fd))).max() < 1e-7


@settings(max_examples=150, deadline=None)
@given(_safe_asts, st.floats(0.4, 1.6), st.floats(0.4, 1.6))
def test_jet1_and_jet2_value_and_gradient_bit_identical(ast, x, y):
    point = (x, y)
    try:
        j1 = eval_jet1(ast, XY, point)
    except DomainError:
        with pytest.raises(DomainError):
            eval_jet2(ast, XY, point)
        return
    try:
        j2 = eval_jet2(ast, XY, point)
    except DomainError as exc:
        # the Hessian entries are the only lines jet1 does not run
        assert "non-finite result" in str(exc)
        return
    assert j2.value == j1.value
    assert j2.gradient.tolist() == list(j1.gradient)


def test_equal_asts_share_compiled_code():
    """A re-parsed equal expression hits the cache, and so does a new value
    of a parameter the expression does not reference."""
    _cached_code.cache_clear()
    eval_jet2(parse("x*sin(y)", XY), XY, (0.3, 0.4), {"M": 1.0})
    jet = eval_jet2(parse("x*sin(y)", XY), XY, (0.5, 0.6), {"M": 2.0})
    info = _cached_code.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert jet.value == 0.5 * math.sin(0.6)


def test_compile_shares_the_evaluator_cache():
    """compile_jet1 and compile_value take their code from the same cache:
    a second model with equal components reuses the first one's closures."""
    _cached_code.cache_clear()
    ast = parse("1 - 2*M/r", ("r", "M"))
    first = compile_jet1(ast, ("r",), {"M": 1.0, "a": 0.0})
    assert compile_jet1(parse("1 - 2*M/r", ("r", "M")), ("r",), {"M": 1.0, "a": 5.0}) is first
    assert compile_jet1(ast, ("r",), {"M": 2.0}) is not first
    assert compile_value(ast, ("r",), {"M": 1.0}) is not first
    assert eval_jet1(ast, ("r",), (4.0,), {"M": 1.0}).gradient == first(4.0)[1]
    info = _cached_code.cache_info()
    assert (info.misses, info.hits) == (3, 2)


def test_compiled_code_cache_is_bounded():
    ast = parse("M*x", ("x", "M"))
    for k in range(1000):
        assert eval_value(ast, ("x",), (2.0,), {"M": float(k)}) == 2.0 * k
    info = _cached_code.cache_info()
    assert info.currsize == info.maxsize


def test_compiled_parameters_inline():
    ast = parse("2*M/r", ("r", "M"))
    fn = compile_jet1(ast, ("r",), {"M": 1.5})
    value, gradient = fn(2.0)
    assert value == 1.5
    assert gradient[0] == pytest.approx(-0.75)


def test_jet1_matches_jet2_first_order():
    ast = parse("sin(x)*exp(y) + x/(1+y^2)", XY)
    j1 = eval_jet1(ast, XY, (0.7, -0.4))
    j2 = eval_jet2(ast, XY, (0.7, -0.4))
    assert j1.value == pytest.approx(j2.value, rel=1e-15)
    assert np.allclose(j1.gradient, j2.gradient, rtol=1e-15)


def test_abs_kink_rejected():
    with pytest.raises(DomainError):
        eval_jet2(parse("abs(x)", ("x",)), ("x",), (0.0,))
    jet = eval_jet2(parse("abs(x)", ("x",)), ("x",), (-2.0,))
    assert jet.value == 2.0
    assert jet.gradient.tolist() == [-1.0]


#: function -> (argument, value, first and second derivative in closed form)
_CLOSED_FORMS = {
    "sin": (0.3, math.sin(0.3), math.cos(0.3), -math.sin(0.3)),
    "cos": (0.3, math.cos(0.3), -math.sin(0.3), -math.cos(0.3)),
    "tan": (0.3, math.tan(0.3), 1.0 / math.cos(0.3) ** 2,
            2.0 * math.sin(0.3) / math.cos(0.3) ** 3),
    "sinh": (0.3, math.sinh(0.3), math.cosh(0.3), math.sinh(0.3)),
    "cosh": (0.3, math.cosh(0.3), math.sinh(0.3), math.cosh(0.3)),
    "tanh": (0.3, math.tanh(0.3), 1.0 / math.cosh(0.3) ** 2,
             -2.0 * math.sinh(0.3) / math.cosh(0.3) ** 3),
    "exp": (0.3, math.exp(0.3), math.exp(0.3), math.exp(0.3)),
    "log": (2.0, math.log(2.0), 0.5, -0.25),
    "sqrt": (4.0, 2.0, 0.25, -1.0 / 32.0),
    "abs": (-2.0, 2.0, -1.0, 0.0),
}


@pytest.mark.parametrize("func", FUNCTIONS)
def test_function_jet_closed_form(func):
    arg, value, slope, curvature = _CLOSED_FORMS[func]
    jet = eval_jet2(Call(func, Sym("x")), ("x",), (arg,))
    assert jet.value == pytest.approx(value, rel=1e-14)
    assert jet.gradient[0] == pytest.approx(slope, rel=1e-14)
    assert jet.hessian[0, 0] == pytest.approx(curvature, rel=1e-14, abs=0.0)


def test_tan_derivatives():
    jet = eval_jet2(parse("tan(x)", ("x",)), ("x",), (0.3,))
    t = math.tan(0.3)
    assert jet.gradient[0] == pytest.approx(1 + t * t, rel=1e-14)
    assert jet.hessian[0, 0] == pytest.approx(2 * t * (1 + t * t), rel=1e-13)
