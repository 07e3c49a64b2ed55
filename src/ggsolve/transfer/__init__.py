"""Transfer algorithms: finite extensions, HNN-extensions, amalgamated products."""

from .oracles import FiniteGroupOracle, FreeProductOracle, GraphGroupOracle
from .finite_extension import FiniteExtension, finite_ext_reduce
from .hnn import HnnPresentation, hnn_knapsack, hnn_saturate
from .freeprod import free_product_saturate
from .amalgam import AmalgamPresentation, amalgam_knapsack, phi_transform

__all__ = [
    "AmalgamPresentation",
    "FiniteExtension",
    "FiniteGroupOracle",
    "FreeProductOracle",
    "GraphGroupOracle",
    "HnnPresentation",
    "amalgam_knapsack",
    "finite_ext_reduce",
    "free_product_saturate",
    "hnn_knapsack",
    "hnn_saturate",
    "phi_transform",
]
