"""Shared finite-difference oracles and samplers for the test suite.

The 4th-order central stencils here are the independent check on the exact
jet differentiation used by the library; they must never call into the jet
machinery except for plain value evaluation.
"""

import hashlib
import math

import numpy as np
import pytest

from stconvex import expressions as ex
from stconvex.convexity import (CInterval, ConvexityCertificate, PerPointStats,
                                admissible_c_interval, grid_points, hessian_signature)
from stconvex.errors import NotBlockForm, OutOfDomain, ToolkitError, WrongSignature
from stconvex.geometry import (SpacetimeModel, _sign_counts, christoffels_from,
                               covariant_hessian, evaluator_for)


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
    code = ex.compile_value(ast, names, params)

    def fn(x):
        return code(*(float(v) for v in x))
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
            g[i, j] = g[j, i] = value_fn(model.components[i][j], model.coordinate_names,
                                         model.parameters)(x)
    ginv = np.linalg.inv(g)
    return christoffels_from(ginv, fd_metric_derivatives(model, x, h))


def flat_chart(g_tt, loci=()):
    """Minkowski space with the given g_tt and singular loci, over t x y z."""
    return SpacetimeModel.from_components(
        "flat-variant", ("t", "x", "y", "z"),
        {(0, 0): g_tt, (1, 1): "1", (2, 2): "1", (3, 3): "1"}, singular_loci=loci)


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
        if descriptor.label != "Lorentzian":
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


def null_expansions_by_eigenvectors(model, base_point):
    """The eigenvector construction that `null_expansions` replaced, on a
    model whose block form has passed the library's checks: the unit
    eigenvectors u (timelike, oriented to the future) and s (spacelike,
    oriented so that s.dR >= 0) of the base block, and theta = (2/R) l.dR for
    l = u +- s, each renormalized by g(l, t) = -1 against the future unit
    vector t."""
    bf = model.block_form
    ia, ib = bf.base_indices
    base_names = (model.coordinate_names[ia], model.coordinate_names[ib])
    block = (model.components[ia][ia], model.components[ia][ib], model.components[ib][ib])
    values = tuple(float(v) for v in base_point)
    params = model.parameters
    g_aa, g_ab, g_bb = ex.compile_value(block, base_names, params)(*values)
    gamma = np.array([[g_aa, g_ab], [g_ab, g_bb]])
    eigenvalues, vectors = np.linalg.eigh(gamma)
    negative, zero, _ = _sign_counts(eigenvalues)
    if (negative, zero) != (1, 0):
        raise WrongSignature(f"base block is not Lorentzian at {values}")
    u_hat = vectors[:, 0] / math.sqrt(-eigenvalues[0])
    s_hat = vectors[:, 1] / math.sqrt(eigenvalues[1])
    future = np.array(bf.future, dtype=float)
    if float(future @ gamma @ future) >= 0.0:
        raise NotBlockForm("declared future direction is not timelike at this point")
    if float(u_hat @ gamma @ future) > 0.0:
        u_hat = -u_hat
    radius, radius_gradient = ex.eval_jet1(bf.area_radius, base_names, values, params)
    if radius <= 0.0:
        raise OutOfDomain(f"area radius {radius!r} must be positive")
    d_radius = np.array(radius_gradient)
    if float(s_hat @ d_radius) < 0.0:
        s_hat = -s_hat
    t_hat = future / math.sqrt(-float(future @ gamma @ future))
    out = []
    for sign in (+1.0, -1.0):
        ell = u_hat + sign * s_hat
        ell = ell / (-float(ell @ gamma @ t_hat))
        out.append(2.0 / radius * float(ell @ d_radius))
    return out[0], out[1]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def bits_digest(results) -> str:
    """sha256, to 16 hex digits, of float.hex of every float in a nested
    structure of tuples, lists and arrays, so that -0.0 is not 0.0."""
    def flat(item):
        if isinstance(item, (tuple, list)):
            return [bits for part in item for bits in flat(part)]
        if isinstance(item, np.ndarray):
            return [float(v).hex() for v in item.ravel().tolist()]
        return [float(item).hex()]
    return hashlib.sha256(" ".join(flat(results)).encode()).hexdigest()[:16]
