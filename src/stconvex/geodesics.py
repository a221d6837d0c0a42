"""Geodesic integration and convexity probes along curves.

Geodesics are integrated with classical fixed-step RK4 on

    dx^mu/dlam = v^mu,    dv^mu/dlam = -Gamma^mu_{nu rho} v^nu v^rho,

with g(v, v) recorded at every sample as a conserved-quantity diagnostic.
The probes evaluate the pointwise margin

    m(lam) = V^mu V^nu nabla_mu nabla_nu f - c g(V, V)

with V the curve tangent; for a field certified with constant c, the margin
is nonnegative along every geodesic, and no closed spacelike loop can keep
the *full* second derivative of f along the curve above c g(V, V) (a
periodic function has no strictly convex parametrization).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expressions as ex
from .errors import NotClosed, SingularMetric, StepSizeInvalid, ToolkitError
from .geometry import (Point, SpacetimeModel, TangentVector, VectorClass,
                       classify_vector, covariant_hessian, covariant_hessian_from,
                       evaluator_for, field_jet)

DEFAULT_STEP = 1e-3


@dataclass(frozen=True)
class GeodesicState:
    position: Point
    velocity: TangentVector

    @classmethod
    def of(cls, position, velocity) -> "GeodesicState":
        p = Point(position)
        return cls(p, TangentVector(velocity, p))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Integrated curve: (lam, state) samples with per-sample g(v, v)."""

    model: SpacetimeModel
    samples: tuple[tuple[float, GeodesicState], ...]
    norm_history: tuple[float, ...]
    step_size: float
    truncated: bool = False
    truncation_reason: str = ""

    @property
    def max_norm_drift(self) -> float:
        base = self.norm_history[0]
        return max(abs(v - base) for v in self.norm_history)

    @property
    def drift_constant(self) -> float:
        """C such that the observed drift equals C * h^4."""
        return self.max_norm_drift / self.step_size ** 4

    def final_state(self) -> GeodesicState:
        return self.samples[-1][1]


def integrate_geodesic(model: SpacetimeModel, s0: GeodesicState,
                       lambda_span: tuple[float, float],
                       step: float = DEFAULT_STEP) -> Trajectory:
    """Fixed-step RK4; no adaptivity, so runs are deterministic and step
    halving quarters-squared the position error. Entering a declared
    singular-locus guard truncates the trajectory instead of raising."""
    if not step > 0.0:
        raise StepSizeInvalid(f"step must be positive, got {step!r}")
    lam0, lam1 = float(lambda_span[0]), float(lambda_span[1])
    if not lam1 > lam0:
        raise StepSizeInvalid(f"empty parameter span {lambda_span!r}")
    evaluator = evaluator_for(model)
    d = model.dimension
    x = np.array(s0.position.coordinates, dtype=float)
    v = np.array(s0.velocity.components, dtype=float)
    if len(x) != d or len(v) != d:
        raise ValueError("initial state dimension does not match the chart")

    def acceleration(gamma, vel):
        return -np.einsum("mnr,n,r->m", gamma, vel, vel)

    n_full = int(np.floor((lam1 - lam0) / step + 1e-12))
    remainder = (lam1 - lam0) - n_full * step
    steps = [step] * n_full + ([remainder] if remainder > 1e-12 else [])

    samples = []
    norms = []
    lam = lam0
    truncated = False
    reason = ""
    metric_here = evaluator.metric_at(Point(x))
    loci_here = evaluator.locus_values(x)
    for h in steps + [None]:
        state = GeodesicState.of(x, v)
        samples.append((lam, state))
        norms.append(float(v @ metric_here.g @ v))
        if h is None:
            break
        try:
            k1x = v
            k1v = acceleration(metric_here.christoffels, v)
            m2 = evaluator.metric_at(Point(x + 0.5 * h * k1x), checks=False)
            k2x = v + 0.5 * h * k1v
            k2v = acceleration(m2.christoffels, k2x)
            m3 = evaluator.metric_at(Point(x + 0.5 * h * k2x), checks=False)
            k3x = v + 0.5 * h * k2v
            k3v = acceleration(m3.christoffels, k3x)
            m4 = evaluator.metric_at(Point(x + h * k3x), checks=False)
            k4x = v + h * k3v
            k4v = acceleration(m4.christoffels, k4x)
            x_next = x + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
            v_next = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
            loci_next = evaluator.locus_values(x_next)
            crossed = [i for i, (a, b) in enumerate(zip(loci_here, loci_next))
                       if a * b < 0.0]
            if crossed:
                node = model.singular_loci[crossed[0]]
                raise SingularMetric(
                    f"step from lambda = {lam} crossed the singular locus "
                    f"{ex.to_source(node)} = 0")
            x, v, loci_here = x_next, v_next, loci_next
            lam = lam + h
            metric_here = evaluator.metric_at(Point(x))
        except ToolkitError as exc:
            truncated = True
            reason = str(exc)
            break
    return Trajectory(model=model, samples=tuple(samples), norm_history=tuple(norms),
                      step_size=step, truncated=truncated, truncation_reason=reason)


@dataclass(frozen=True)
class MarginReport:
    """Pointwise convexity margins along a trajectory."""

    margins: tuple[float, ...]
    min_margin: float
    argmin_lambda: float
    argmin_point: Point
    c: float
    tolerance: float
    initial_class: VectorClass

    @property
    def passed(self) -> bool:
        return self.min_margin >= -self.tolerance


def convexity_along_curve(f: ex.ScalarField, trajectory: Trajectory, c: float,
                          tolerance: float = 1e-10) -> MarginReport:
    """m(lam) = v^mu v^nu nabla_mu nabla_nu f - c g(v, v) at every sample."""
    if not trajectory.samples:
        raise ValueError("empty trajectory")
    model = trajectory.model
    evaluator = evaluator_for(model)
    margins = []
    for (lam, state) in trajectory.samples:
        p = state.position
        metric_at = evaluator.metric_at(p, checks=False)
        hess = covariant_hessian(f, model, p, metric_at=metric_at)
        vel = state.velocity.array()
        margins.append(float(vel @ hess @ vel - c * (vel @ metric_at.g @ vel)))
    idx = int(np.argmin(margins))
    lam0, state0 = trajectory.samples[0]
    first_metric = evaluator.metric_at(state0.position, checks=False)
    return MarginReport(
        margins=tuple(margins),
        min_margin=margins[idx],
        argmin_lambda=trajectory.samples[idx][0],
        argmin_point=trajectory.samples[idx][1].position,
        c=c,
        tolerance=tolerance,
        initial_class=classify_vector(first_metric, state0.velocity),
    )


@dataclass(frozen=True)
class CurveSpec:
    """A coordinate curve given by expressions in one parameter on [0, 1]."""

    components: tuple[ex.Expr, ...]
    sources: tuple[str, ...]
    parameter: str = "s"

    @classmethod
    def from_texts(cls, texts, parameter="s", extra_symbols=()) -> "CurveSpec":
        asts = tuple(ex.parse(t, (parameter,) + tuple(extra_symbols)) for t in texts)
        return cls(asts, tuple(texts), parameter)

    def jets(self, s: float, parameters=None):
        """position, ds, dss arrays at parameter value s (exact jets)."""
        pos, d1, d2 = [], [], []
        for node in self.components:
            jet = ex.eval_jet2(node, (self.parameter,), (s,), parameters)
            pos.append(jet.value)
            d1.append(jet.gradient[0])
            d2.append(jet.hessian[0, 0])
        return np.array(pos), np.array(d1), np.array(d2)


@dataclass(frozen=True)
class ClosedCurveReport:
    """Outcome of the closed-loop probe. `obstructed` means the loop cannot
    be a geodesic of a spacetime where f is certified at this c: the full
    second derivative of f along the loop drops below c g(v, v) somewhere,
    as it must, since f composed with a closed curve is periodic."""

    obstructed: bool
    min_margin: float
    argmin_parameter: float
    min_hessian_margin: float
    c: float
    n_samples: int


def closed_curve_probe(f: ex.ScalarField, model: SpacetimeModel, curve: CurveSpec,
                       c: float, n_samples: int = 256,
                       tolerance: float = 1e-10) -> ClosedCurveReport:
    """Evaluate d^2(f o gamma)/ds^2 - c g(gamma', gamma') around the loop."""
    params = model.parameters
    start, _, _ = curve.jets(0.0, params)
    end, _, _ = curve.jets(1.0, params)
    if float(np.max(np.abs(end - start))) > 1e-9:
        raise NotClosed(f"curve endpoints differ by {np.max(np.abs(end - start)):.3e}")
    if len(start) != model.dimension:
        raise ValueError("curve dimension does not match the chart")
    evaluator = evaluator_for(model)
    grid = np.linspace(0.0, 1.0, n_samples, endpoint=False)
    positions = [curve.jets(float(s), params) for s in grid]
    spread = max(float(np.max(np.abs(pos - start))) for pos, _, _ in positions)
    if spread < 1e-12:
        raise NotClosed("degenerate loop: all samples coincide")
    min_margin = np.inf
    argmin = 0.0
    min_hess_margin = np.inf
    for s, (pos, d1, d2) in zip(grid, positions):
        p = Point(pos)
        metric_at = evaluator.metric_at(p, checks=False)
        jet = field_jet(f, model, p)
        # full second derivative along the curve: plain partials plus the
        # acceleration term (chart covariance is automatic in this form)
        second = float(d1 @ jet.hessian @ d1 + jet.gradient @ d2)
        gvv = float(d1 @ metric_at.g @ d1)
        margin = second - c * gvv
        if margin < min_margin:
            min_margin = margin
            argmin = float(s)
        hess = covariant_hessian_from(jet.gradient, jet.hessian, metric_at.christoffels)
        min_hess_margin = min(min_hess_margin, float(d1 @ hess @ d1 - c * gvv))
    return ClosedCurveReport(
        obstructed=min_margin < -tolerance,
        min_margin=float(min_margin),
        argmin_parameter=argmin,
        min_hessian_margin=float(min_hess_margin),
        c=c,
        n_samples=n_samples,
    )
