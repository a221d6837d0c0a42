"""stconvex: numerical certification of convexity on Lorentzian spacetimes.

The library decides whether a scalar field f on a parametrized Lorentzian
chart satisfies V^T (Hess f) V >= c g(V, V) for some constant c > 0 with a
Lorentzian-signature Hessian, and checks the geometric consequences: the
extrinsic curvature of its level sets, the black-hole interior mean-curvature
barrier, the expanding hyperboloidal foliation of flat spacetime, and the
absence of compatible closed spacelike loops.

Signature convention (-, +, ..., +); geometric units G = c = 1.
"""

from .catalog import builtin_models, canonical_field, canonical_field_spherical
from .convexity import (CInterval, ConvexityCertificate, ConvexityQuery,
                        SignatureDescriptor, admissible_c_interval,
                        certify_region, hessian_signature)
from .errors import (ConfigError, DomainError, NonLorentzianMetric,
                     NonSpacelikeSlice, NotBlockForm, NotClosed, NullGradient,
                     OutOfDomain, ParseError, SingularMetric, StepSizeInvalid,
                     ToolkitError, UnknownSymbol, WrongSignature)
from .expressions import Jet2, ScalarField, eval_jet2, parse, to_source
from .foliation import (BarrierScanResult, LevelSetFrame, SliceSpec,
                        barrier_scan, induced_metric, level_set_frame,
                        mean_curvature, null_expansions, schwarzschild_trk,
                        second_fundamental_form, slice_laplacian,
                        slice_restricted_hessian)
from .geodesics import (ClosedCurveReport, CurveSpec, GeodesicState,
                        MarginReport, Trajectory, closed_curve_probe,
                        convexity_along_curve, integrate_geodesic)
from .geometry import (MetricAt, Point, SpacetimeModel, TangentVector,
                       VectorClass, classify_vector, covariant_hessian,
                       eval_metric)

__version__ = "0.1.0"

__all__ = [
    "BarrierScanResult", "CInterval", "ClosedCurveReport", "ConfigError",
    "ConvexityCertificate", "ConvexityQuery", "CurveSpec", "DomainError",
    "GeodesicState", "Jet2", "LevelSetFrame", "MarginReport", "MetricAt",
    "NonLorentzianMetric", "NonSpacelikeSlice", "NotBlockForm", "NotClosed",
    "NullGradient", "OutOfDomain", "ParseError", "Point", "ScalarField",
    "SignatureDescriptor", "SingularMetric", "SliceSpec", "SpacetimeModel",
    "StepSizeInvalid", "TangentVector", "ToolkitError", "Trajectory",
    "UnknownSymbol", "VectorClass", "WrongSignature", "admissible_c_interval",
    "barrier_scan", "builtin_models", "canonical_field",
    "canonical_field_spherical", "certify_region", "classify_vector",
    "closed_curve_probe", "convexity_along_curve", "covariant_hessian",
    "eval_jet2", "eval_metric", "hessian_signature", "induced_metric",
    "integrate_geodesic", "level_set_frame", "mean_curvature",
    "null_expansions", "parse", "schwarzschild_trk", "second_fundamental_form",
    "slice_laplacian", "slice_restricted_hessian", "to_source",
]
