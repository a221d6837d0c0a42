"""Built-in spacetime charts and scalar-field families.

Model names: minkowski-cartesian, minkowski-spherical, schwarzschild-exterior,
schwarzschild-interior, milne. Field names: canonical (Cartesian chart),
canonical-spherical (spherical-spatial Minkowski chart).

The canonical family is f_alpha = (x.x - alpha t^2)/2; its region
certification succeeds exactly for 0 < alpha <= 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnknownSymbol
from .expressions import ScalarField
from .geometry import SpacetimeModel


def _minkowski_cartesian():
    return SpacetimeModel.from_components(
        name="minkowski-cartesian",
        coordinate_names=("t", "x", "y", "z"),
        components={(0, 0): "-1", (1, 1): "1", (2, 2): "1", (3, 3): "1"},
        sample_box=((-1.0, 1.0),) * 4,
    )


def _minkowski_spherical():
    return SpacetimeModel.from_components(
        name="minkowski-spherical",
        coordinate_names=("t", "r", "theta", "phi"),
        components={(0, 0): "-1", (1, 1): "1", (2, 2): "r^2",
                    (3, 3): "r^2*sin(theta)^2"},
        singular_loci=("r", "sin(theta)"),
        sample_box=((-1.0, 1.0), (0.5, 2.0), (0.5, 2.5), (0.1, 6.0)),
        block_form=((0, 1), "r", (1.0, 0.0)),
    )


def _schwarzschild(interior: bool):
    name = "schwarzschild-interior" if interior else "schwarzschild-exterior"
    # inside the horizon the future is the direction of decreasing r
    future = (0.0, -1.0) if interior else (1.0, 0.0)
    box = ((-1.0, 1.0), (0.3, 1.7), (0.5, 2.5), (0.1, 6.0)) if interior else \
          ((-1.0, 1.0), (2.5, 8.0), (0.5, 2.5), (0.1, 6.0))
    return SpacetimeModel.from_components(
        name=name,
        coordinate_names=("t", "r", "theta", "phi"),
        components={(0, 0): "-(1 - 2*M/r)", (1, 1): "1/(1 - 2*M/r)",
                    (2, 2): "r^2", (3, 3): "r^2*sin(theta)^2"},
        parameters={"M": 1.0},
        singular_loci=("r", "r - 2*M", "sin(theta)"),
        sample_box=box,
        block_form=((0, 1), "r", future),
    )


def _milne():
    return SpacetimeModel.from_components(
        name="milne",
        coordinate_names=("tau", "chi", "theta", "phi"),
        components={(0, 0): "-1", (1, 1): "tau^2",
                    (2, 2): "tau^2*sinh(chi)^2",
                    (3, 3): "tau^2*sinh(chi)^2*sin(theta)^2"},
        singular_loci=("tau", "sinh(chi)", "sin(theta)"),
        sample_box=((0.5, 3.0), (0.3, 2.0), (0.5, 2.5), (0.1, 6.0)),
        block_form=((0, 1), "tau*sinh(chi)", (1.0, 0.0)),
    )


_BUILDERS = {
    "minkowski-cartesian": _minkowski_cartesian,
    "minkowski-spherical": _minkowski_spherical,
    "schwarzschild-exterior": lambda: _schwarzschild(False),
    "schwarzschild-interior": lambda: _schwarzschild(True),
    "milne": _milne,
}


def canonical_field(alpha: float) -> ScalarField:
    """f_alpha over the Cartesian chart, with alpha substituted numerically."""
    text = f"0.5*(x^2+y^2+z^2) - {0.5 * float(alpha)!r}*t^2"
    return ScalarField.from_text(text, ("t", "x", "y", "z"))


def canonical_field_spherical(alpha: float) -> ScalarField:
    """The same family written on the spherical-spatial Minkowski chart."""
    text = f"0.5*r^2 - {0.5 * float(alpha)!r}*t^2"
    return ScalarField.from_text(text, ("t", "r", "theta", "phi"))


_FIELD_BUILDERS = {
    "canonical": canonical_field,
    "canonical-spherical": canonical_field_spherical,
}


@dataclass(frozen=True)
class Catalog:
    """Lookup for built-in models and fields."""

    model_names: tuple[str, ...]

    def model(self, name: str, **parameter_overrides) -> SpacetimeModel:
        try:
            built = _BUILDERS[name]()
        except KeyError:
            raise UnknownSymbol(name) from None
        if parameter_overrides:
            built = built.with_parameters(**parameter_overrides)
        return built

    def field(self, name: str, alpha: float) -> ScalarField:
        try:
            return _FIELD_BUILDERS[name](alpha)
        except KeyError:
            raise UnknownSymbol(name) from None


def builtin_models() -> Catalog:
    return Catalog(tuple(_BUILDERS))
