"""Level-set extrinsic geometry: second fundamental form, mean curvature,
the black-hole interior barrier scan, null expansions for warped-product
charts, and intrinsic probes on coordinate slices.

Sign convention. The extrinsic curvature of a level set of f is computed as

    K(X, Y) = - X^mu Y^nu nabla_mu nabla_nu f / sqrt(eps grad f . grad f)

on level-set tangents X, Y, with the reported unit normal oriented so that f
decreases along it. With this sign, a time function f that increases toward
the future reproduces the ADM extrinsic curvature of its slices: the r =
const cylinders of the black-hole interior (time function f = r) have
Tr K = -(2/r) (2M/r - 1)^(-1/2) (1 - 3M/(2r)), positive below the maximal
surface r = 3M/2 and negative above it, and the hyperboloidal slices of the
expanding Milne wedge (f = tau) have Tr K = 3/tau.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import expressions as ex
from .errors import (NonSpacelikeSlice, NotBlockForm, NullGradient, OutOfDomain,
                     WrongSignature)
from .geometry import (SIGNATURE_TOL, Point, SpacetimeModel, TangentVector,
                       _inverse_and_christoffels, _is_null, _lorentzian_2x2, covariant_hessian,
                       covariant_hessian_from, eval_metric, evaluator_for, field_jet)

#: tangent seeds whose |g-rejection norm| is below this times max |g_mu nu| are unusable
BASIS_TOL = 1e-12


@dataclass(frozen=True)
class LevelSetFrame:
    """Unit normal and a g-orthonormal tangent basis for the level set of f
    through a point. epsilon is +1 for a spacelike gradient (timelike level
    set) and -1 for a timelike gradient (spacelike level set); the normal
    satisfies g(n, n) = epsilon and n^mu d_mu f < 0."""

    point: Point
    epsilon: int
    norm: float
    unit_normal: TangentVector
    tangent_basis: tuple[TangentVector, ...]


def _gradient_data(f, model, p):
    """(jet, metric_at, eps, norm, unit normal n = -eps g^-1 df / norm) shared
    by level-set code."""
    metric_at = eval_metric(model, p)
    jet = field_jet(f, model, p)
    grad_up = metric_at.g_inverse @ jet.gradient
    q = float(jet.gradient @ grad_up)
    # null relative to the Cauchy-Schwarz bound |q| <= |df| |g^-1 df|, which
    # scales as q does under f -> lambda f and g -> s g; a zero gradient is null
    if _is_null(q, jet.gradient, grad_up):
        raise NullGradient(f"grad f . grad f = {q:.3e} at {p.coordinates}; "
                           "the level set is degenerate there")
    eps = 1 if q > 0 else -1
    norm = float(np.sqrt(eps * q))
    return jet, metric_at, eps, norm, -eps * grad_up / norm


def level_set_frame(f: ex.ScalarField, model: SpacetimeModel, p: Point) -> LevelSetFrame:
    jet, metric_at, eps, norm, n = _gradient_data(f, model, p)
    basis = _tangent_basis(metric_at.g, n)
    return LevelSetFrame(
        point=p, epsilon=eps, norm=norm,
        unit_normal=TangentVector(n.tolist(), p),
        tangent_basis=tuple(TangentVector(b, p) for b in basis.tolist()),
    )


def _tangent_basis(g, n):
    """Greedy Gram-Schmidt against the normal on all coordinate seeds at once,
    as the rows of one matrix with their n-components removed in one step.
    Each step takes the remaining row with the largest |g-rejection norm| (the
    first of equals wins, so the basis is deterministic) and removes the new
    vector from every row. When every remaining row is null, the step takes
    r_i + sign r_j for the remaining pair with the largest |g(r_i, r_j)| (the
    first of equals), whose g-norm^2 is 2 |g(r_i, r_j)|. Returns the basis as
    the rows of a (d - 1, d) array."""
    d = g.shape[0]
    gn = g @ n
    rows = np.eye(d) - np.multiply.outer(gn / float(n @ gn), n)
    floor = BASIS_TOL * float(np.abs(g).max())
    remaining = list(range(d))
    basis = np.empty((d - 1, d))
    for step in range(d - 1):
        rows_g = rows @ g
        w2 = np.einsum("ij,ij->i", rows_g, rows).tolist()
        k = max(remaining, key=lambda i: abs(w2[i]))
        r, w = rows[k], w2[k]
        if abs(w) < floor:
            cross = rows_g @ rows.T
            k, j = max(itertools.combinations(remaining, 2), key=lambda ij: abs(cross[ij]))
            r = rows[k] + math.copysign(1.0, cross[k, j]) * rows[j]
            w = float(r @ g @ r)
            if abs(w) < floor:
                raise WrongSignature("could not build a non-null tangent basis from "
                                     "coordinate seeds at this point")
        remaining.remove(k)
        b = basis[step] = r / math.sqrt(abs(w))
        if step < d - 2:
            # r -> r - g(r, b) g(b, b) b, where g(b, b) is the sign of w
            rows -= np.multiply.outer((rows_g @ b) * math.copysign(1.0, w), b)
    return basis


def second_fundamental_form(f: ex.ScalarField, model: SpacetimeModel, p: Point) -> np.ndarray:
    """K on the tangent basis of level_set_frame at p, per the module sign convention."""
    frame = level_set_frame(f, model, p)
    h = covariant_hessian(f, model, p)
    basis = np.array([b.components for b in frame.tangent_basis])
    return -(basis @ h @ basis.T) / frame.norm


def mean_curvature(f: ex.ScalarField, model: SpacetimeModel, p: Point) -> float:
    """Tr K traced with the induced inverse metric h^{mu nu} = g^{mu nu} -
    eps n^mu n^nu (the ambient trace would double-count the normal)."""
    jet, metric_at, eps, norm, n = _gradient_data(f, model, p)
    hess = covariant_hessian_from(jet.gradient, jet.hessian, metric_at.christoffels)
    h_up = metric_at.g_inverse - eps * np.outer(n, n)
    return float(-np.einsum("mn,mn->", h_up, hess) / norm)


def schwarzschild_trk(r: float, m: float) -> float:
    """Closed-form mean curvature of the r = const cylinder inside the
    horizon: -(2/r) (2M/r - 1)^(-1/2) (1 - 3M/(2r)); zero at r = 3M/2."""
    if not 0.0 < r < 2.0 * m < math.inf:
        raise OutOfDomain(f"r = {r!r} is outside the interior chart (0, 2M) for M = {m!r}")
    return -(2.0 / r) * (2.0 * m / r - 1.0) ** -0.5 * (1.0 - 3.0 * m / (2.0 * r))


@dataclass(frozen=True)
class BarrierScanResult:
    """Sampled Tr K(r) over an interior radius range, with sign-change
    brackets. sign_pattern_ok records whether Tr K > 0 strictly below 3M/2
    and < 0 strictly above it on the sampled radii."""

    m: float
    r_samples: tuple[tuple[float, float], ...]  # (r, TrK), strictly increasing r
    zero_crossings: tuple[tuple[float, float], ...]
    sign_pattern_ok: bool


def barrier_scan(m: float, r_lo: float, r_hi: float, n: int) -> BarrierScanResult:
    if not 0.0 < r_lo < r_hi < 2.0 * m < math.inf:
        raise OutOfDomain(f"scan range [{r_lo!r}, {r_hi!r}] must sit inside (0, 2M), M = {m!r}")
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise OutOfDomain(f"n must be at least 2 and an int, got {n!r}")
    radii = np.linspace(r_lo, r_hi, n)
    values = [schwarzschild_trk(float(r), m) for r in radii]
    crossings = []
    for i in range(n):
        if values[i] == 0.0:
            crossings.append((float(radii[max(i - 1, 0)]), float(radii[min(i + 1, n - 1)])))
        elif i + 1 < n and values[i] * values[i + 1] < 0.0:
            crossings.append((float(radii[i]), float(radii[i + 1])))
    barrier = 1.5 * m
    ok = all(v > 0.0 for r, v in zip(radii, values) if r < barrier) and \
         all(v < 0.0 for r, v in zip(radii, values) if r > barrier)
    return BarrierScanResult(
        m=m,
        r_samples=tuple((float(r), float(v)) for r, v in zip(radii, values)),
        zero_crossings=tuple(crossings),
        sign_pattern_ok=ok,
    )


def null_expansions(model: SpacetimeModel, base_point) -> tuple[float, float]:
    """(theta_plus, theta_minus) of the symmetry fiber through a 2D base
    point of a declared warped-product chart, in closed form from the declared
    future vector F: with t = F / sqrt(-gamma(F, F)) and s = (-(gamma t)_b,
    (gamma t)_a) / sqrt(-det gamma), the null pair l = t +- s has gamma(l, t) =
    -1, and theta = (2/R) l^a d_a R = (2/R)(t.dR +- |s.dR|). So theta_plus >=
    theta_minus, and theta_plus is the direction of increasing area radius
    when one exists. theta is homogeneous of degree -1/2 in the block, so the
    block is scaled by 4^-k (k from the binary exponent of its largest entry)
    and theta by 2^-k back: exact in the normal range, and free of over- and
    underflow beyond it. The declaration was checked when the model was built."""
    bf = model.block_form
    if bf is None:
        raise NotBlockForm(f"model '{model.name}' declares no warped-product split")
    values = tuple(float(v) for v in base_point)
    if len(values) != 2:
        raise ValueError("base_point must supply exactly the two base coordinates")
    ia, ib = bf.base_indices
    block = (model.components[ia][ia], model.components[ia][ib], model.components[ib][ib])
    jets = ex.eval_jet1(block + (bf.area_radius,),
                        (model.coordinate_names[ia], model.coordinate_names[ib]),
                        values, model.parameters)
    k = math.frexp(max(map(abs, jets[0:9:3])))[1] // 2
    g_aa, g_ab, g_bb = (math.ldexp(entry, -2 * k) for entry in jets[0:9:3])
    radius, dr_a, dr_b = jets[9:]
    minus_det = _lorentzian_2x2(g_aa, g_ab, g_bb)
    if minus_det is None:
        raise WrongSignature(f"base block is not Lorentzian at {values}")
    f_a, f_b = bf.future
    low_a, low_b = g_aa * f_a + g_ab * f_b, g_ab * f_a + g_bb * f_b  # gamma F
    future_norm2 = f_a * low_a + f_b * low_b
    if future_norm2 >= 0.0:
        raise NotBlockForm("declared future direction is not timelike at this point")
    if radius <= 0.0:
        raise OutOfDomain(f"area radius {radius!r} must be positive")
    inv_norm = 1.0 / math.sqrt(-future_norm2)
    along_t = (f_a * dr_a + f_b * dr_b) * inv_norm
    across = abs(low_a * dr_b - low_b * dr_a) * inv_norm / math.sqrt(minus_det)
    return (math.ldexp(2.0 / radius * (along_t + across), -k),
            math.ldexp(2.0 / radius * (along_t - across), -k))


@dataclass(frozen=True)
class SliceSpec:
    """A coordinate-constant hypersurface x^k = value."""

    coordinate: str
    value: float


def _slice_data(model: SpacetimeModel, spec: SliceSpec, p: Point):
    """(pinned point, surviving indices, h, dh): the metric at p with x^k set
    to the slice value, restricted to the other coordinates."""
    if spec.coordinate not in model.coordinate_names:
        raise ValueError(f"'{spec.coordinate}' is not a coordinate of '{model.name}'")
    if len(p) != model.dimension:
        raise ValueError(f"point has {len(p)} coordinates, chart has {model.dimension}")
    k = model.coordinate_names.index(spec.coordinate)
    if abs(p.coordinates[k] - spec.value) > 1e-9:
        raise ValueError(f"point {p.coordinates} is not on the slice "
                         f"{spec.coordinate} = {spec.value!r}")
    pinned = Point(p.coordinates[:k] + (spec.value,) + p.coordinates[k + 1:])
    keep = np.array([i for i in range(model.dimension) if i != k])
    metric = evaluator_for(model).metric_at(pinned, checks=False)
    h = metric.g[keep[:, None], keep]
    eigenvalues = np.linalg.eigvalsh(h)
    if eigenvalues[0] <= SIGNATURE_TOL * eigenvalues[-1]:
        raise NonSpacelikeSlice(
            f"induced metric on {spec.coordinate} = {spec.value!r} is not positive "
            f"definite at {p.coordinates} (smallest eigenvalue {eigenvalues[0]:.3e})")
    return pinned, keep, h, metric.first_derivatives[keep[:, None, None], keep[:, None], keep]


def induced_metric(model: SpacetimeModel, spec: SliceSpec, p: Point) -> np.ndarray:
    """Positive-definite induced metric on the slice, in the surviving
    coordinates' order."""
    return _slice_data(model, spec, p)[2]


def _restricted_hessian_data(f, model, spec, p):
    pinned, keep, h, dh = _slice_data(model, spec, p)
    h_inv, gamma = _inverse_and_christoffels(h, dh, pinned.coordinates)
    jet = field_jet(f, model, pinned)
    ddf = covariant_hessian_from(jet.gradient[keep], jet.hessian[keep[:, None], keep], gamma)
    return h_inv, ddf


def slice_restricted_hessian(f: ex.ScalarField, model: SpacetimeModel,
                             spec: SliceSpec, p: Point) -> np.ndarray:
    """Intrinsic covariant Hessian D_i D_j (f restricted to the slice), using
    the induced metric's own connection."""
    return _restricted_hessian_data(f, model, spec, p)[1]


def slice_laplacian(f: ex.ScalarField, model: SpacetimeModel,
                    spec: SliceSpec, p: Point) -> float:
    """Trace of the restricted Hessian with the induced inverse metric."""
    h_inv, ddf = _restricted_hessian_data(f, model, spec, p)
    return float(np.einsum("mn,mn->", h_inv, ddf))


__all__ = [
    "BarrierScanResult", "LevelSetFrame", "SliceSpec", "barrier_scan",
    "induced_metric", "level_set_frame", "mean_curvature", "null_expansions",
    "schwarzschild_trk", "second_fundamental_form", "slice_laplacian",
    "slice_restricted_hessian",
]
