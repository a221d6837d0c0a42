"""Decide, pointwise and over sampled regions, whether a scalar field has a
covariant Hessian that dominates a positive multiple of the metric, and
compute the admissible range of that constant.

The pointwise condition at a fixed point is

    V^T H V >= c V^T G V   for all tangent V,  i.e.  H - c G positive

semidefinite. Since lambda_min(H - cG) is concave in c, the admissible set of
c is an interval. H - cG can only change definiteness where it is singular,
at an eigenvalue of the pencil (H, G), so the endpoints are the extreme
pencil eigenvalues (or 0, or the search ceiling) that pass a PSD test
(smallest eigenvalue, tolerance relative to H and cG), all from one
fixed-width probe set. Region certificates intersect the per-point intervals
over a coordinate-box grid; they are explicitly *sampled* certificates and
record the grid used.

A certificate also reports, independently, whether the Hessian itself has
Lorentzian signature at every sample: the two clauses (signature and
inequality) are checked separately and neither is assumed to imply the other.

Grid points are independent and the interval-intersection reduction is
associative and commutative, so the scan may be partitioned arbitrarily
without changing the certificate. This implementation evaluates the metric
and the Hessian point by point in row-major grid order, so an evaluation
error names the first failing point, and runs the signature and interval
oracle once per chunk of GRID_CHUNK points, as array code over the stacked
matrices; the reduction then visits the chunk's points in grid order, which
fixes the witness deterministically. A stacked oracle call computes every
row as a single-matrix call would, so the certificate does not depend on
the chunk.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonLorentzianMetric, ToolkitError
from .expressions import ScalarField
from .geometry import (Point, SpacetimeModel, _sign_counts, covariant_hessian,
                       evaluator_for)

#: relative accuracy of an endpoint: an interval whose top is at most this times
#: max |pencil root| is empty, and ends crossing by this times max |end| touch
ENDPOINT_RESOLUTION = 1e-9
#: defaults of the (relative) PSD tolerance and of the c search ceiling
PSD_TOLERANCE, C_SEARCH_CEILING = 1e-10, 1e3
#: grid points per stacked oracle call in certify_region: numpy's per-call
#: overhead is shared by the chunk, and memory stays O(chunk), not O(grid)
GRID_CHUNK = 128


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


def hessian_signature(h: np.ndarray, tol: float = PSD_TOLERANCE
                      ) -> SignatureDescriptor | list[SignatureDescriptor]:
    """Sign counts of H's eigenvalues, zero meaning |lambda| <= tol * max |lambda|.

    H is one (d, d) matrix, giving one descriptor, or an (N, d, d) stack,
    giving a list of N descriptors from one stacked eigvalsh call; a single
    matrix is the N = 1 case of the same computation. ValueError is raised
    for a tol that is not finite and >= 0.
    """
    _check_oracle_settings(tol)
    counts = _sign_counts(np.linalg.eigvalsh(_as_stack(h)), tol)
    descriptors = [SignatureDescriptor(*row) for row in zip(*(c.tolist() for c in counts))]
    return descriptors if np.ndim(h) == 3 else descriptors[0]


def _check_oracle_settings(tol, ceiling=C_SEARCH_CEILING):
    """ValueError unless 0 <= tol < inf and 0 < ceiling < inf."""
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"psd_tolerance = {tol!r} must be finite and >= 0")
    if not 0.0 < ceiling < math.inf:
        raise ValueError(f"c_search_ceiling = {ceiling!r} must be finite and > 0")


def _as_stack(m) -> np.ndarray:
    """A (d, d) matrix or an (N, d, d) stack as an (N, d, d) float array."""
    m = np.asarray(m, dtype=float)
    return m.reshape(-1, *m.shape[-2:])


@dataclass(frozen=True)
class CInterval:
    lo: float
    hi: float
    ceiling_hit: bool = False

    def intersect(self, other: "CInterval | None") -> "CInterval | None":
        """The common part, or None when empty. Ends computed at different
        points differ by rounding, so ends that cross by at most
        ENDPOINT_RESOLUTION * max(|lo|, |hi|) touch, lo then exceeding hi.
        The ceiling_hit kept is that of the interval whose hi is kept."""
        if other is None:
            return None
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo - hi > ENDPOINT_RESOLUTION * max(abs(lo), abs(hi)):
            return None
        return CInterval(lo, hi, (self.ceiling_hit and self.hi <= other.hi)
                         or (other.ceiling_hit and other.hi <= self.hi))


def admissible_c_interval(h: np.ndarray, g: np.ndarray, tol: float = PSD_TOLERANCE,
                          ceiling: float = C_SEARCH_CEILING
                          ) -> CInterval | None | list[CInterval | None]:
    """The interval {c in (0, ceiling] : H - cG is PSD}, or None when empty.

    H - cG passes when its smallest eigenvalue is >= -tol (||H|| + c ||G||),
    spectral norms: by Weyl's inequality rounding moves it by that order.
    The probes are 0, the real parts of the d pencil eigenvalues, sorted and
    clipped to [0, ceiling], the ceiling, and the midpoints between them, all
    tested in one stacked eigvalsh call; lo and hi are the extreme probes
    that pass, and ceiling_hit means hi is the ceiling. Ends are accurate to
    1e-9 relative to max |pencil root| when the pencil is diagonalizable and
    to about 1e-7 at a defective root, where eigvals itself is only accurate
    to sqrt(eps). G must be Lorentzian; ValueError is raised for a tol that
    is not finite and >= 0 or a ceiling that is not finite and > 0.

    H and G are (d, d) matrices, giving one result, or (N, d, d) stacks of
    N pencils, giving a list of N results; each numpy.linalg routine then
    runs once for the whole stack, and a single pencil is the N = 1 case.
    Every row is computed as it would be alone, so a stack's results equal
    the per-pencil results exactly. NonLorentzianMetric is raised when any
    row's G is not Lorentzian.
    """
    _check_oracle_settings(tol, ceiling)
    hs, gs = _as_stack(h), _as_stack(g)
    g_eigenvalues = np.linalg.eigvalsh(gs)
    negative, zero, _ = _sign_counts(g_eigenvalues)
    if np.any((negative != 1) | (zero != 0)):
        raise NonLorentzianMetric("the matrix supplied as the metric is not Lorentzian")
    g_norms = np.maximum(-g_eigenvalues[:, 0], g_eigenvalues[:, -1])

    # An endpoint of the admissible set is a c where H - cG turns singular: a
    # pencil eigenvalue. A defective root comes back as a near-real complex
    # pair, so every eigenvalue's real part is a candidate. A root outside
    # [0, ceiling] is clipped onto an end, and a repeated probe tests the same
    # matrix again, so it passes or fails with it.
    roots = np.sort(np.linalg.eigvals(np.linalg.solve(gs, hs)).real, axis=-1)
    scales = np.maximum(-roots[:, 0], roots[:, -1])
    # the d + 2 probes and the d + 1 midpoints between them, ascending, in one stacked
    # call; the feasible set is an interval, so its extreme feasible probes are its ends
    cs = np.empty((len(roots), 2 * roots.shape[1] + 3))
    cs[:, 0], cs[:, 2:-2:2], cs[:, -1] = 0.0, np.clip(roots, 0.0, ceiling), ceiling
    cs[:, 1::2] = 0.5 * (cs[:, :-1:2] + cs[:, 2::2])
    eigenvalues = np.linalg.eigvalsh(hs[:, None] - cs[:, :, None, None] * gs[:, None])
    # column 0 is c = 0: H itself
    h_norms = np.maximum(-eigenvalues[:, 0, 0], eigenvalues[:, 0, -1])
    feasible = eigenvalues[:, :, 0] >= -tol * (h_norms[:, None] + cs * g_norms[:, None])
    lo = np.where(feasible, cs, math.inf).min(axis=1)
    hi = np.where(feasible, cs, -math.inf).max(axis=1)  # -inf: none feasible
    empty = hi <= ENDPOINT_RESOLUTION * scales
    intervals = [None if e else CInterval(a, b, b == ceiling)
                 for e, a, b in zip(empty.tolist(), lo.tolist(), hi.tolist())]
    return intervals if np.ndim(h) == 3 else intervals[0]


@dataclass(frozen=True)
class ConvexityQuery:
    """Axis-aligned coordinate box and sampling resolution for certification;
    psd_tolerance is relative to the size of H and G (admissible_c_interval)."""

    region: tuple[tuple[float, float], ...]
    samples_per_axis: int = 5
    psd_tolerance: float = PSD_TOLERANCE
    c_search_ceiling: float = C_SEARCH_CEILING

    def validate(self, dimension: int):
        if len(self.region) != dimension:
            raise ValueError(f"query region has {len(self.region)} axes, chart has {dimension}")
        if not isinstance(self.samples_per_axis, (int, np.integer)) or self.samples_per_axis < 2:
            raise ValueError(f"samples_per_axis must be at least 2 and an int, "
                             f"got {self.samples_per_axis!r}")
        _check_oracle_settings(self.psd_tolerance, self.c_search_ceiling)
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
    return [Point(coords) for coords in _grid_coordinates(query)]


def _grid_coordinates(query: ConvexityQuery):
    """The grid's coordinate tuples, lazily, in row-major order."""
    axes = [np.linspace(lo, hi, query.samples_per_axis) for lo, hi in query.region]
    return itertools.product(*axes)


def certify_region(model: SpacetimeModel, f: ScalarField,
                   query: ConvexityQuery) -> ConvexityCertificate:
    """Grid scan of the pointwise condition plus the Hessian-signature clause."""
    query.validate(model.dimension)
    evaluator = evaluator_for(model)
    running: CInterval | None = CInterval(0.0, query.c_search_ceiling)
    witness = None
    labels = set()
    lo_min = hi_min = math.inf
    lo_max = hi_max = -math.inf
    coordinates = _grid_coordinates(query)
    while chunk := [Point(c) for c in itertools.islice(coordinates, GRID_CHUNK)]:
        hs, gs = [], []
        for point in chunk:
            try:
                metric_at = evaluator.metric_at(point)
                hs.append(covariant_hessian(f, model, point, metric_at=metric_at))
            except ToolkitError as exc:
                exc.args = (f"{exc} [at grid point {point.coordinates}]",)  # attributes kept
                raise
            gs.append(metric_at.g)
        hs, gs = np.array(hs), np.array(gs)
        descriptors = hessian_signature(hs, query.psd_tolerance)
        intervals = admissible_c_interval(hs, gs, query.psd_tolerance, query.c_search_ceiling)
        labels.update(descriptor.label for descriptor in descriptors)
        for point, interval in zip(chunk, intervals):
            if interval is not None:
                lo_min, lo_max = min(lo_min, interval.lo), max(lo_max, interval.lo)
                hi_min, hi_max = min(hi_min, interval.hi), max(hi_max, interval.hi)
            if running is not None:
                running = interval if interval is None else running.intersect(interval)
                if running is None:
                    witness = point
    if lo_min > lo_max:  # no point had an interval
        lo_min = lo_max = hi_min = hi_max = math.nan
    stats = PerPointStats(samples=query.samples_per_axis ** model.dimension, c_lo_min=lo_min,
                          c_lo_max=lo_max, c_hi_min=hi_min, c_hi_max=hi_max)
    lorentzian_everywhere = labels == {"Lorentzian"}
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
