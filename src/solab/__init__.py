"""solab: a numerical laboratory for homothetic solitons of the direct and
inverse mean curvature flow in Euclidean space.

Verifies soliton equations, radial-Laplacian and weighted-volume identities,
capacity and mean-exit-time relations, and isoperimetric inequalities on
built-in and user-defined parametric immersions.
"""

__version__ = "0.1.0"

from .catalog import catalog, catalog_rows
from .charts import ChartDefinition, ParamSpec, chart_from_dict, chart_from_sources, load_chart
from .geometry import Immersion, PointGeometry, geometry, point_geometry, radial_laplacian
from .quadrature import ExtrinsicRegion, gaussian_volume, psi, region_volume, second_moment
from .solitons import SolitonSpec, infer_constant, soliton_residual

__all__ = [
    "__version__",
    "catalog",
    "catalog_rows",
    "ChartDefinition",
    "ParamSpec",
    "chart_from_dict",
    "chart_from_sources",
    "load_chart",
    "Immersion",
    "PointGeometry",
    "geometry",
    "point_geometry",
    "radial_laplacian",
    "ExtrinsicRegion",
    "region_volume",
    "gaussian_volume",
    "second_moment",
    "psi",
    "SolitonSpec",
    "soliton_residual",
    "infer_constant",
]
