"""Shared finite-difference oracles and samplers for the test suite.

The 4th-order central stencils here are the independent check on the exact
jet differentiation used by the library; they must never call into the jet
machinery except for plain value evaluation.
"""

import numpy as np
import pytest

from stconvex.convexity import (CInterval, ConvexityCertificate, PerPointStats,
                                admissible_c_interval, grid_points, hessian_signature)
from stconvex.errors import ToolkitError
from stconvex.expressions import eval_value
from stconvex.geometry import christoffels_from, covariant_hessian, evaluator_for


def fd_derivative(fn, x, axis, h=1e-3):
    """4th-order central first derivative of fn at x along one axis."""
    def at(offset):
        shifted = np.array(x, dtype=float)
        shifted[axis] += offset
        return fn(shifted)
    return (-at(2 * h) + 8 * at(h) - 8 * at(-h) + at(-2 * h)) / (12 * h)


def fd_gradient(fn, x, h=1e-3):
    return np.array([fd_derivative(fn, x, a, h) for a in range(len(x))])


def fd_hessian(fn, x, h=1e-3):
    """Nested 4th-order stencils; symmetric by averaging."""
    n = len(x)
    out = np.zeros((n, n))
    for a in range(n):
        def da(y, _a=a):
            return fd_derivative(fn, y, _a, h)
        for b in range(n):
            out[a, b] = fd_derivative(da, x, b, h)
    return 0.5 * (out + out.T)


def value_fn(ast, names, params=None):
    def fn(x):
        return eval_value(ast, names, tuple(x), params)
    return fn


def fd_metric_derivatives(model, x, h=1e-3):
    """dg[lam, mu, nu] from value-only evaluation of the components."""
    d = model.dimension
    dg = np.zeros((d, d, d))
    for i in range(d):
        for j in range(i, d):
            fn = value_fn(model.components[i][j], model.coordinate_names, model.parameters)
            for lam in range(d):
                dg[lam, i, j] = dg[lam, j, i] = fd_derivative(fn, x, lam, h)
    return dg


def fd_christoffels(model, x, h=1e-3):
    d = model.dimension
    g = np.zeros((d, d))
    for i in range(d):
        for j in range(i, d):
            g[i, j] = g[j, i] = eval_value(model.components[i][j], model.coordinate_names,
                                           tuple(x), model.parameters)
    ginv = np.linalg.inv(g)
    return christoffels_from(ginv, fd_metric_derivatives(model, x, h))


def random_point_in(box, rng):
    return tuple(rng.uniform(lo, hi) for lo, hi in box)


def random_lorentzian(rng, d):
    """A non-diagonal Lorentzian metric: a random rotation of one negative and
    d - 1 positive eigenvalues, all of magnitude in [0.5, 2]."""
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    spectrum = np.concatenate(([-rng.uniform(0.5, 2.0)], rng.uniform(0.5, 2.0, d - 1)))
    g = q @ np.diag(spectrum) @ q.T
    return 0.5 * (g + g.T)


def spherical_to_cartesian(p):
    """Chart map (t, r, theta, phi) -> (t, x, y, z) and its Jacobian."""
    t, r, theta, phi = p
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    point = (t, r * st * cp, r * st * sp, r * ct)
    jac = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, st * cp, r * ct * cp, -r * st * sp],
        [0.0, st * sp, r * ct * sp, r * st * cp],
        [0.0, ct, -r * st, 0.0],
    ])
    return point, jac


def certify_region_per_point(model, f, query):
    """The one-point-at-a-time region scan that `certify_region` replaced:
    each grid point's metric, Hessian, signature and interval in row-major
    order, with the oracle called on single matrices."""
    query.validate(model.dimension)
    evaluator = evaluator_for(model)
    running = CInterval(0.0, query.c_search_ceiling)
    witness = None
    lorentzian_everywhere = True
    labels = set()
    los, his = [], []
    for point in grid_points(query):
        try:
            metric_at = evaluator.metric_at(point)
            h = covariant_hessian(f, model, point, metric_at=metric_at)
        except ToolkitError as exc:
            exc.args = (f"{exc} [at grid point {point.coordinates}]",)
            raise
        descriptor = hessian_signature(h, query.psd_tolerance)
        labels.add(descriptor.label)
        if not descriptor.is_lorentzian:
            lorentzian_everywhere = False
        interval = admissible_c_interval(h, metric_at.g, query.psd_tolerance,
                                         query.c_search_ceiling)
        if interval is not None:
            los.append(interval.lo)
            his.append(interval.hi)
        if running is not None:
            running = interval if interval is None else running.intersect(interval)
            if running is None and witness is None:
                witness = point
    stats = PerPointStats(
        samples=query.samples_per_axis ** model.dimension,
        c_lo_min=min(los) if los else float("nan"),
        c_lo_max=max(los) if los else float("nan"),
        c_hi_min=min(his) if his else float("nan"),
        c_hi_max=max(his) if his else float("nan"),
    )
    if running is None:
        verdict = "violated"
    elif running.lo > 0.0 and lorentzian_everywhere:
        verdict = "certified"
    else:
        verdict = "degenerate"
        witness = None
    return ConvexityCertificate(
        verdict=verdict, c_interval=running, witness=witness, per_point_stats=stats,
        lorentzian_hessian_everywhere=lorentzian_everywhere,
        grid=(query.samples_per_axis,) * model.dimension,
        psd_tolerance=query.psd_tolerance, ceiling=query.c_search_ceiling,
        signature_labels=tuple(sorted(labels)),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
