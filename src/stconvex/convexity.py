"""Decide, pointwise and over sampled regions, whether a scalar field has a
covariant Hessian that dominates a positive multiple of the metric, and
compute the admissible range of that constant.

The pointwise condition at a fixed point is

    V^T H V >= c V^T G V   for all tangent V,  i.e.  H - c G positive

semidefinite. Since lambda_min(H - cG) is concave in c, the admissible set of
c is an interval. H - cG can only change definiteness where it is singular,
at an eigenvalue of the pencil (H, G), so the endpoints are the extreme
pencil eigenvalues (or 0, or the search ceiling) that pass a PSD test
(smallest eigenvalue with tolerance). Region certificates intersect the
per-point intervals over a coordinate-box grid; they are explicitly
*sampled* certificates and record the grid used.

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
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonLorentzianMetric, ToolkitError
from .expressions import ScalarField
from .geometry import (Point, SpacetimeModel, _signature_counts,
                       covariant_hessian, evaluator_for, is_lorentzian)

#: accuracy of a computed endpoint: intervals whose upper endpoint is below
#: it are reported empty, and intervals whose ends cross by at most it touch
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
        """The common part, or None when empty. Ends computed at different
        points differ by rounding, so ends that cross by at most
        ENDPOINT_RESOLUTION touch: lo may then exceed hi by that much."""
        if other is None:
            return None
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi + ENDPOINT_RESOLUTION:
            return None
        return CInterval(lo, hi, self.ceiling_hit or other.ceiling_hit)


def admissible_c_interval(h: np.ndarray, g: np.ndarray, tol: float = 1e-10,
                          ceiling: float = 1e3) -> CInterval | None:
    """The interval {c in (0, ceiling] : H - cG is PSD}, or None when empty.

    The probes are 0, the real part of every pencil eigenvalue in (0,
    ceiling), the ceiling and the midpoints between them, all tested in one
    stacked eigvalsh call; lo and hi are the extreme probes that pass. Ends
    are accurate to 1e-9 when the pencil is diagonalizable and to about 1e-7
    at a defective root, where eigvals itself is only accurate to sqrt(eps).
    G must be Lorentzian.
    """
    h = np.asarray(h, dtype=float)
    g = np.asarray(g, dtype=float)
    if not is_lorentzian(g):
        raise NonLorentzianMetric("the matrix supplied as the metric is not Lorentzian")

    # An endpoint of the admissible set is a c where H - cG turns singular: a
    # pencil eigenvalue. A defective root comes back as a near-real complex
    # pair, so every eigenvalue's real part is a candidate.
    pencil = np.linalg.eigvals(np.linalg.solve(g, h)).real
    probes = [0.0]
    for c in np.sort(pencil[(pencil > 0.0) & (pencil < ceiling)]):
        if c - probes[-1] > 1e-12:
            probes.append(float(c))
    if ceiling - probes[-1] > 1e-12:
        probes.append(ceiling)
    # the probes and the segment midpoints, tested in one stacked call; the
    # feasible set is an interval, so its extreme feasible probes are its ends
    cs = np.empty(2 * len(probes) - 1)
    cs[0::2] = probes
    cs[1::2] = 0.5 * (cs[:-1:2] + cs[2::2])
    feasible = np.flatnonzero(np.linalg.eigvalsh(h - cs[:, None, None] * g)[:, 0] >= -tol)
    if feasible.size == 0 or cs[feasible[-1]] <= ENDPOINT_RESOLUTION:
        return None
    return CInterval(float(cs[feasible[0]]), float(cs[feasible[-1]]),
                     bool(feasible[-1] == cs.size - 1))


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
        if not isinstance(self.samples_per_axis, (int, np.integer)) or self.samples_per_axis < 2:
            raise ValueError(f"samples_per_axis must be at least 2 and an int, "
                             f"got {self.samples_per_axis!r}")
        if not 0.0 <= self.psd_tolerance < math.inf:
            raise ValueError(f"psd_tolerance = {self.psd_tolerance!r} must be finite and >= 0")
        if not 0.0 < self.c_search_ceiling < math.inf:
            raise ValueError(f"c_search_ceiling = {self.c_search_ceiling!r} must be finite and > 0")
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
            exc.args = (f"{exc} [at grid point {point.coordinates}]",)  # attributes kept
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
