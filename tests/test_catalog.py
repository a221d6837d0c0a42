"""Built-in model and field catalog."""

import math

import numpy as np
import pytest

from stconvex import Point, UnknownSymbol, builtin_models, eval_metric

CAT = builtin_models()


def test_model_names():
    for name in ("minkowski-cartesian", "minkowski-spherical",
                 "schwarzschild-exterior", "schwarzschild-interior", "milne"):
        assert name in CAT.model_names


def test_minkowski_cartesian_components():
    model = CAT.model("minkowski-cartesian")
    assert model.dimension == 4
    m = eval_metric(model, Point((0.0, 0.0, 0.0, 0.0)))
    assert np.array_equal(m.g, np.diag([-1.0, 1.0, 1.0, 1.0]))


def test_canonical_field_text():
    field = CAT.field("canonical", alpha=0.5)
    assert field.source_text == "0.5*(x^2+y^2+z^2) - 0.25*t^2"


def test_canonical_field_alpha_one():
    field = CAT.field("canonical", alpha=1.0)
    assert field.source_text == "0.5*(x^2+y^2+z^2) - 0.5*t^2"


def test_milne_metric_at_tau_2():
    """Spatial block is tau^2 times the unit hyperbolic 3-metric."""
    model = CAT.model("milne")
    chi, theta = 0.8, 1.0
    m = eval_metric(model, Point((2.0, chi, theta, 0.4)))
    assert m.g[0, 0] == -1.0
    unit_hyperbolic = np.diag([1.0, math.sinh(chi) ** 2,
                               math.sinh(chi) ** 2 * math.sin(theta) ** 2])
    assert np.abs(m.g[1:, 1:] - 4.0 * unit_hyperbolic).max() < 1e-14


def test_schwarzschild_parameter_override():
    model = CAT.model("schwarzschild-exterior", M=2.0)
    m = eval_metric(model, Point((0.0, 8.0, 1.2, 0.3)))
    assert m.g[0, 0] == pytest.approx(-0.5)


def test_unknown_model():
    with pytest.raises(UnknownSymbol):
        CAT.model("de-sitter")


def test_unknown_field():
    with pytest.raises(UnknownSymbol):
        CAT.field("harmonic", alpha=1.0)


def test_spherical_canonical_matches_cartesian():
    """Same scalar in both charts at a corresponding pair of points."""
    from stconvex.expressions import compile_value
    f_sph = CAT.field("canonical-spherical", alpha=0.3)
    f_cart = CAT.field("canonical", alpha=0.3)
    t, r = 1.2, 2.0
    v_sph = compile_value(f_sph.ast, ("t", "r", "theta", "phi"))(t, r, 0.7, 0.4)
    x, y, z = (r * math.sin(0.7) * math.cos(0.4),
               r * math.sin(0.7) * math.sin(0.4), r * math.cos(0.7))
    v_cart = compile_value(f_cart.ast, ("t", "x", "y", "z"))(t, x, y, z)
    assert v_sph == pytest.approx(v_cart, rel=1e-14)


def test_block_forms_declared():
    for name in ("minkowski-spherical", "schwarzschild-exterior",
                 "schwarzschild-interior", "milne"):
        assert CAT.model(name).block_form is not None
    assert CAT.model("minkowski-cartesian").block_form is None
