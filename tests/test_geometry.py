"""Metric evaluation, Christoffels, covariant Hessians, causal classification."""

import gc

import numpy as np
import pytest

from stconvex import (NullGradient, Point, SingularMetric, TangentVector,
                      VectorClass, WrongSignature, builtin_models,
                      canonical_field, canonical_field_spherical,
                      classify_vector, covariant_hessian, eval_metric,
                      gradient_invariant)
from stconvex.expressions import eval_jet2
from stconvex import geometry
from stconvex.geometry import SpacetimeModel

from conftest import (fd_christoffels, fd_gradient, fd_hessian,
                      fd_metric_derivatives, random_point_in,
                      spherical_to_cartesian, value_fn)

CAT = builtin_models()
MINK = CAT.model("minkowski-cartesian")
MINK_SPH = CAT.model("minkowski-spherical")
SCHW = CAT.model("schwarzschild-exterior")
SCHW_IN = CAT.model("schwarzschild-interior")
MILNE = CAT.model("milne")
ALL_MODELS = (MINK, MINK_SPH, SCHW, SCHW_IN, MILNE)


def test_minkowski_constant_metric():
    m = eval_metric(MINK, Point((0.3, -1.0, 2.0, 0.5)))
    assert np.array_equal(m.g, np.diag([-1.0, 1.0, 1.0, 1.0]))
    assert not m.christoffels.any()
    assert np.array_equal(m.g_inverse, np.diag([-1.0, 1.0, 1.0, 1.0]))


def test_schwarzschild_at_r4():
    m = eval_metric(SCHW, Point((0.0, 4.0, 1.2, 0.3)))
    assert m.g[0, 0] == pytest.approx(-0.5, abs=1e-15)
    assert m.g[1, 1] == pytest.approx(2.0, abs=1e-15)
    assert m.christoffels[1, 0, 0] == pytest.approx(0.03125, abs=1e-15)


def test_horizon_is_singular():
    with pytest.raises(SingularMetric):
        eval_metric(SCHW, Point((0.0, 2.0, 1.2, 0.3)))


def test_locus_guard_width():
    with pytest.raises(SingularMetric):
        eval_metric(SCHW, Point((0.0, 2.0 + 5e-7, 1.2, 0.3)))
    eval_metric(SCHW, Point((0.0, 2.001, 1.2, 0.3)))  # past the guard: fine


def test_wrong_signature_rejected():
    riemannian = SpacetimeModel.from_components(
        name="euclidean", coordinate_names=("t", "x"),
        components={(0, 0): "1", (1, 1): "1"})
    with pytest.raises(WrongSignature,
                       match=r"\(0 negative, 0 zero, 2 positive\) is not Lorentzian"):
        eval_metric(riemannian, Point((0.0, 0.0)))


def test_degenerate_determinant_rejected():
    degenerate = SpacetimeModel.from_components(
        name="degenerate", coordinate_names=("t", "x"),
        components={(0, 0): "-1", (1, 1): "0.0"})
    # the zero eigenvalue also breaks the signature: the determinant check fires first
    with pytest.raises(SingularMetric, match=r"\|det g\| = 0\.000e\+00 below tolerance"):
        eval_metric(degenerate, Point((0.0, 0.0)))


def test_condition_cap_rejected():
    stiff = SpacetimeModel.from_components(
        name="stiff", coordinate_names=("t", "x"),
        components={(0, 0): "-1", (1, 1): "1e13"})
    with pytest.raises(SingularMetric, match=r"condition estimate 1\.000e\+13 exceeds 1e\+12"):
        eval_metric(stiff, Point((0.0, 0.0)))


def test_inverse_is_inverse():
    m = eval_metric(SCHW, Point((0.0, 3.7, 0.9, 2.0)))
    assert np.abs(m.g @ m.g_inverse - np.eye(4)).max() < 1e-12


def test_christoffels_exactly_symmetric(rng):
    for model in ALL_MODELS:
        for _ in range(5):
            p = Point(random_point_in(model.sample_box, rng))
            gamma = eval_metric(model, p).christoffels
            assert np.array_equal(gamma, gamma.transpose(0, 2, 1))


def test_christoffels_symmetric_on_fuzzed_metrics(rng):
    """Diagonally dominant Lorentzian metrics with random expression entries."""
    waves = ("sin(t + x)", "cos(x*y)", "sinh(y - z)", "cos(t)*sin(z)",
             "exp(0.3*x)", "tanh(t*z)")
    for trial in range(6):
        picks = rng.choice(len(waves), size=7)
        components = {
            (0, 0): f"-(2 + 0.3*({waves[picks[0]]}))",
            (1, 1): f"2 + 0.3*({waves[picks[1]]})",
            (2, 2): f"2 + 0.3*({waves[picks[2]]})",
            (3, 3): f"2 + 0.3*({waves[picks[3]]})",
            (0, 1): f"0.1*({waves[picks[4]]})",
            (1, 2): f"0.1*({waves[picks[5]]})",
            (2, 3): f"0.1*({waves[picks[6]]})",
        }
        model = SpacetimeModel.from_components(
            name=f"fuzz{trial}", coordinate_names=("t", "x", "y", "z"),
            components=components)
        for _ in range(3):
            p = Point(rng.uniform(-2.0, 2.0, 4))
            gamma = eval_metric(model, p).christoffels
            assert np.array_equal(gamma, gamma.transpose(0, 2, 1))


def test_metric_compatibility(rng):
    """d_lam g_{mu nu} - Gamma^s_{lam mu} g_{s nu} - Gamma^s_{lam nu} g_{mu s} = 0."""
    for model in ALL_MODELS:
        for _ in range(4):
            p = Point(random_point_in(model.sample_box, rng))
            m = eval_metric(model, p)
            nabla_g = m.first_derivatives \
                - np.einsum("slm,sn->lmn", m.christoffels, m.g) \
                - np.einsum("sln,ms->lmn", m.christoffels, m.g)
            assert np.abs(nabla_g).max() < 1e-9


def test_ad_vs_fd_christoffels(rng):
    for model in ALL_MODELS:
        for _ in range(3):
            x = np.array(random_point_in(model.sample_box, rng))
            exact = eval_metric(model, Point(x)).christoffels
            approx = fd_christoffels(model, x)
            err = np.abs(exact - approx) / (1.0 + np.abs(exact))
            assert err.max() < 1e-6


def test_ad_vs_fd_metric_derivatives(rng):
    for model in (SCHW, MILNE):
        x = np.array(random_point_in(model.sample_box, rng))
        exact = eval_metric(model, Point(x)).first_derivatives
        approx = fd_metric_derivatives(model, x)
        assert np.abs(exact - approx).max() < 1e-8


# --------------------------------------------------------------------------
# covariant Hessian
# --------------------------------------------------------------------------

def test_hessian_canonical_flat():
    f = canonical_field(1.0)
    for coords in ((0.0, 0.0, 0.0, 0.0), (2.0, 1.0, -0.5, 0.3)):
        h = covariant_hessian(f, MINK, Point(coords))
        assert np.array_equal(h, np.diag([-1.0, 1.0, 1.0, 1.0]))


def test_hessian_constant_field():
    f = MINK.field("4.25")
    assert not covariant_hessian(f, MINK, Point((0, 1, 2, 3))).any()


def test_hessian_radial_schwarzschild():
    f = SCHW.field("r")
    h = covariant_hessian(f, SCHW, Point((0.0, 4.0, 1.2, 0.3)))
    assert h[0, 0] == pytest.approx(-0.03125, abs=1e-15)


def test_hessian_symmetric_exactly():
    f = SCHW.field("r^2*sin(theta) + t*r")
    h = covariant_hessian(f, SCHW, Point((0.4, 5.0, 1.0, 2.0)))
    assert np.array_equal(h, h.T)


def test_hessian_vs_finite_differences(rng):
    """Coordinate second partials from FD plus Christoffel correction."""
    fields = {
        MINK: canonical_field(0.7),
        SCHW: SCHW.field("r^2 + t^2/(1 + r)"),
        MILNE: MILNE.field("-0.5*tau^2 + sinh(chi)"),
    }
    for model, f in fields.items():
        x = np.array(random_point_in(model.sample_box, rng))
        fn = value_fn(f.ast, model.coordinate_names, model.parameters)
        gamma = eval_metric(model, Point(x)).christoffels
        fd = fd_hessian(fn, x) - np.einsum("l,lmn->mn", fd_gradient(fn, x), gamma)
        exact = covariant_hessian(f, model, Point(x))
        err = np.abs(exact - fd) / (1.0 + np.abs(exact))
        assert err.max() < 1e-6


def test_scalar_invariance_across_charts(rng):
    """V^mu V^nu Hess_{mu nu} f agrees between Cartesian and spherical charts."""
    f_cart = canonical_field(0.8)
    f_sph = canonical_field_spherical(0.8)
    for _ in range(6):
        p_sph = random_point_in(MINK_SPH.sample_box, rng)
        p_cart, jac = spherical_to_cartesian(p_sph)
        v_sph = rng.uniform(-1.0, 1.0, 4)
        v_cart = jac @ v_sph
        h_sph = covariant_hessian(f_sph, MINK_SPH, Point(p_sph))
        h_cart = covariant_hessian(f_cart, MINK, Point(p_cart))
        lhs = v_sph @ h_sph @ v_sph
        rhs = v_cart @ h_cart @ v_cart
        assert lhs == pytest.approx(rhs, abs=1e-8)


# --------------------------------------------------------------------------
# classification and the gradient invariant
# --------------------------------------------------------------------------

def test_classify_examples():
    p = Point((0.0, 0.0, 0.0, 0.0))
    m = eval_metric(MINK, p)
    assert classify_vector(m, TangentVector((1, 0, 0, 0), p)) is VectorClass.TIMELIKE
    assert classify_vector(m, TangentVector((1, 1, 0, 0), p)) is VectorClass.NULL
    assert classify_vector(m, TangentVector((0, 1, 0, 0), p)) is VectorClass.SPACELIKE


def test_classify_requires_matching_base():
    p = Point((0.0, 0.0, 0.0, 0.0))
    m = eval_metric(MINK, p)
    stray = TangentVector((1, 0, 0, 0), Point((1.0, 0.0, 0.0, 0.0)))
    with pytest.raises(ValueError):
        classify_vector(m, stray)


def test_gradient_invariant_canonical():
    f = canonical_field(1.0)
    eps, norm = gradient_invariant(f, MINK, Point((2.0, 0.0, 0.0, 0.0)))
    assert eps == -1
    assert norm == pytest.approx(2.0, abs=1e-15)


def test_gradient_invariant_spacelike():
    eps, norm = gradient_invariant(MINK.field("x"), MINK, Point((0.0, 1.0, 0.0, 0.0)))
    assert eps == 1
    assert norm == pytest.approx(1.0, abs=1e-15)


def test_gradient_invariant_null_raises():
    with pytest.raises(NullGradient):
        gradient_invariant(MINK.field("t - x"), MINK, Point((0.0, 1.0, 0.0, 0.0)))


def test_field_jet_matches_eval_jet2():
    f = SCHW.field("2*M/r")
    jet = eval_jet2(f.ast, SCHW.coordinate_names, (0.0, 4.0, 1.0, 1.0), SCHW.parameters)
    assert jet.value == 0.5


def test_with_parameters():
    heavy = SCHW.with_parameters(M=2.0)
    m = eval_metric(heavy, Point((0.0, 8.0, 1.2, 0.3)))
    assert m.g[0, 0] == pytest.approx(-0.5, abs=1e-15)
    assert SCHW.parameters["M"] == 1.0  # original untouched


def test_evaluator_cache_frees_dropped_models():
    """Cached evaluators must not keep their model (the weak key) alive."""
    gc.collect()
    before = len(geometry._EVALUATORS)
    models = [CAT.model("schwarzschild-interior", M=1.5 + 0.01 * i) for i in range(20)]
    for model in models:
        eval_metric(model, Point((0.0, 1.0, 1.2, 0.3)))
    assert len(geometry._EVALUATORS) == before + len(models)
    del models, model
    gc.collect()
    assert len(geometry._EVALUATORS) == before
