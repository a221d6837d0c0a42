"""Decide, pointwise and over sampled regions, whether a scalar field has a
covariant Hessian that dominates a positive multiple of the metric, and
compute the admissible range of that constant.

The pointwise condition at a fixed point is

    V^T H V >= c V^T G V   for all tangent V,  i.e.  H - c G positive

semidefinite. Since lambda_min(H - cG) is concave in c, the admissible set of
c is an interval; its endpoints are located with a PSD oracle (smallest
eigenvalue with tolerance) bisected between probes seeded at the real
eigenvalues of the pencil (H, G), which is where H - cG can change
definiteness. Region certificates intersect the per-point intervals over a
coordinate-box grid; they are explicitly *sampled* certificates and record
the grid used.

A certificate also reports, independently, whether the Hessian itself has
Lorentzian signature at every sample: the two clauses (signature and
inequality) are checked separately and neither is assumed to imply the other.

Grid points are independent and the interval-intersection reduction is
associative and commutative, so the scan may be partitioned arbitrarily
without changing the certificate; this implementation scans serially in
row-major grid order, which also fixes the witness deterministically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import NonLorentzianMetric, ToolkitError
from .expressions import ScalarField
from .geometry import (Point, SpacetimeModel, _signature_counts,
                       covariant_hessian, evaluator_for, is_lorentzian)

#: intervals whose upper endpoint is below the endpoint resolution are
#: indistinguishable from empty and reported as such
ENDPOINT_RESOLUTION = 1e-9


@dataclass(frozen=True)
class SignatureDescriptor:
    """Eigenvalue-sign counts of a symmetric matrix, with a tolerance on zero."""

    negative: int
    zero: int
    positive: int

    @property
    def label(self) -> str:
        if self.zero > 0:
            return "degenerate"
        if self.negative == 1:
            return "Lorentzian"
        if self.negative == 0:
            return "Riemannian"
        return "indefinite"

    @property
    def is_lorentzian(self) -> bool:
        return self.label == "Lorentzian"


def hessian_signature(h: np.ndarray, tol: float = 1e-10) -> SignatureDescriptor:
    return SignatureDescriptor(*_signature_counts(h, tol))


@dataclass(frozen=True)
class CInterval:
    lo: float
    hi: float
    ceiling_hit: bool = False

    def intersect(self, other: "CInterval | None") -> "CInterval | None":
        if other is None:
            return None
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return None
        return CInterval(lo, hi, self.ceiling_hit or other.ceiling_hit)


def admissible_c_interval(h: np.ndarray, g: np.ndarray, tol: float = 1e-10,
                          ceiling: float = 1e3) -> CInterval | None:
    """The interval {c in (0, ceiling] : H - cG is PSD}, or None when empty.

    Endpoints are accurate to better than 1e-9. G must be Lorentzian.
    """
    h = np.asarray(h, dtype=float)
    g = np.asarray(g, dtype=float)
    if not is_lorentzian(g):
        raise NonLorentzianMetric("the matrix supplied as the metric is not Lorentzian")

    def feasible(c):
        return float(np.linalg.eigvalsh(h - c * g)[0]) >= -tol

    # Definiteness of H - cG can only change where the pencil is singular,
    # i.e. at real eigenvalues of G^{-1} H.
    pencil = np.linalg.eigvals(np.linalg.solve(g, h))
    candidates = sorted(float(ev.real) for ev in pencil
                        if abs(ev.imag) <= 1e-9 * max(1.0, abs(ev))
                        and 0.0 < ev.real < ceiling)
    probes = [0.0]
    for c in candidates:
        if c - probes[-1] > 1e-12:
            probes.append(c)
    if ceiling - probes[-1] > 1e-12:
        probes.append(ceiling)
    # probe candidates and segment midpoints; the feasible set is an interval,
    # so any feasible probe exposes it
    points = []
    for a, b in zip(probes, probes[1:]):
        points.append(a)
        points.append(0.5 * (a + b))
    points.append(probes[-1])
    flags = [feasible(c) for c in points]
    if not any(flags):
        return None
    first = flags.index(True)
    last = len(flags) - 1 - flags[::-1].index(True)

    def refine(c_bad, c_good):
        while abs(c_good - c_bad) > 1e-11:
            mid = 0.5 * (c_bad + c_good)
            if feasible(mid):
                c_good = mid
            else:
                c_bad = mid
        return 0.5 * (c_bad + c_good)

    lo = points[first] if first == 0 else refine(points[first - 1], points[first])
    ceiling_hit = last == len(points) - 1
    hi = ceiling if ceiling_hit else refine(points[last + 1], points[last])
    if hi <= ENDPOINT_RESOLUTION:
        return None
    return CInterval(max(lo, 0.0), hi, ceiling_hit)


@dataclass(frozen=True)
class ConvexityQuery:
    """Axis-aligned coordinate box and sampling resolution for certification."""

    region: tuple[tuple[float, float], ...]
    samples_per_axis: int = 5
    psd_tolerance: float = 1e-10
    c_search_ceiling: float = 1e3

    def validate(self, dimension: int):
        if len(self.region) != dimension:
            raise ValueError(f"query region has {len(self.region)} axes, chart has {dimension}")
        if self.samples_per_axis < 2:
            raise ValueError("samples_per_axis must be at least 2")
        for axis, (lo, hi) in enumerate(self.region):
            if not lo < hi:
                raise ValueError(f"region axis {axis}: lo = {lo!r} is not below hi = {hi!r}")


@dataclass(frozen=True)
class PerPointStats:
    samples: int
    c_lo_min: float
    c_lo_max: float
    c_hi_min: float
    c_hi_max: float


@dataclass(frozen=True)
class ConvexityCertificate:
    """Outcome of a sampled region scan.

    verdict is 'certified' exactly when the intersected interval is nonempty
    with a strictly positive lower endpoint *and* the Hessian is Lorentzian at
    every sample; 'violated' (with a witness point) when the intersection is
    empty; 'degenerate' otherwise. The certificate is sampling-based, not a
    proof: `grid` records the resolution it was computed at.
    """

    verdict: str
    c_interval: CInterval | None
    witness: Point | None
    per_point_stats: PerPointStats
    lorentzian_hessian_everywhere: bool
    grid: tuple[int, ...]
    psd_tolerance: float
    ceiling: float
    signature_labels: tuple[str, ...] = field(default=())

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"


def grid_points(query: ConvexityQuery) -> list[Point]:
    axes = [np.linspace(lo, hi, query.samples_per_axis) for lo, hi in query.region]
    return [Point(coords) for coords in itertools.product(*axes)]


def certify_region(model: SpacetimeModel, f: ScalarField,
                   query: ConvexityQuery) -> ConvexityCertificate:
    """Grid scan of the pointwise condition plus the Hessian-signature clause."""
    query.validate(model.dimension)
    evaluator = evaluator_for(model)
    running: CInterval | None = CInterval(0.0, query.c_search_ceiling)
    witness = None
    lorentzian_everywhere = True
    labels = set()
    los, his = [], []
    for point in grid_points(query):
        try:
            metric_at = evaluator.metric_at(point)
            h = covariant_hessian(f, model, point, metric_at=metric_at)
        except ToolkitError as exc:
            raise type(exc)(f"{exc} [at grid point {point.coordinates}]") from exc
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
        verdict=verdict,
        c_interval=running,
        witness=witness,
        per_point_stats=stats,
        lorentzian_hessian_everywhere=lorentzian_everywhere,
        grid=(query.samples_per_axis,) * model.dimension,
        psd_tolerance=query.psd_tolerance,
        ceiling=query.c_search_ceiling,
        signature_labels=tuple(sorted(labels)),
    )


__all__ = [
    "CInterval", "ConvexityCertificate", "ConvexityQuery", "PerPointStats",
    "SignatureDescriptor", "admissible_c_interval", "certify_region",
    "grid_points", "hessian_signature",
]
