"""Parser, printer, and jet-arithmetic tests for the expression DSL."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stconvex.errors import DomainError, ParseError, UnknownSymbol
from stconvex.expressions import (BinOp, Call, Neg, Num, Sym, compile_jet1,
                                  compile_value, eval_jet1, eval_jet2, eval_value,
                                  parse, to_source)

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


_OVERFLOWING = parse("sinh(sinh(3*x)^3)", ("x",))


@pytest.mark.parametrize("evaluate", [
    lambda: eval_jet2(_OVERFLOWING, ("x",), (1.0,)),
    lambda: eval_jet1(_OVERFLOWING, ("x",), (1.0,)),
    lambda: eval_value(_OVERFLOWING, ("x",), (1.0,)),
    lambda: compile_jet1(_OVERFLOWING, ("x",))(1.0),
    lambda: compile_value(_OVERFLOWING, ("x",))(1.0),
], ids=["eval_jet2", "eval_jet1", "eval_value", "compile_jet1", "compile_value"])
def test_overflow_is_domain_error(evaluate):
    """sinh(1000) overflows a float; every evaluator reports it as a
    DomainError naming the expression, never a bare OverflowError."""
    with pytest.raises(DomainError, match=r"sinh\(sinh"):
        evaluate()


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
    )


_safe_asts = st.recursive(_safe_leaf, _safe_extend, max_leaves=10)


@settings(max_examples=150, deadline=None)
@given(_safe_asts, st.floats(0.4, 1.6), st.floats(0.4, 1.6))
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

    grad = fd_gradient(fn, np.array(point), h=1e-3)
    hess = fd_hessian(fn, np.array(point), h=1e-3)
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
# compiled closures agree with the interpreted jets
# --------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(_safe_asts, st.floats(0.4, 1.6), st.floats(0.4, 1.6))
def test_compiled_jet1_matches_interpreter(ast, x, y):
    point = (x, y)
    try:
        reference = eval_jet1(ast, XY, point)
    except DomainError:
        with pytest.raises(DomainError):
            compile_jet1(ast, XY)(*point)
        return
    value, gradient = compile_jet1(ast, XY)(*point)
    assert value == pytest.approx(reference.value, rel=1e-14, abs=1e-14)
    for got, want in zip(gradient, reference.gradient):
        assert got == pytest.approx(want, rel=1e-14, abs=1e-14)
    assert compile_value(ast, XY)(*point) == pytest.approx(reference.value,
                                                           rel=1e-14, abs=1e-14)


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


def test_tan_derivatives():
    jet = eval_jet2(parse("tan(x)", ("x",)), ("x",), (0.3,))
    t = math.tan(0.3)
    assert jet.gradient[0] == pytest.approx(1 + t * t, rel=1e-14)
    assert jet.hessian[0, 0] == pytest.approx(2 * t * (1 + t * t), rel=1e-13)
