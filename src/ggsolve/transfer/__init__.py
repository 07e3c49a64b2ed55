"""Transfer algorithms: finite extensions, HNN-extensions, amalgamated products."""

from .kauto import (
    KnapsackAutomaton,
    equation_chain,
    knapsack_to_ka,
    prepend_word,
    skeleton_equations,
    skeletons,
)
from .oracles import (
    FiniteGroupOracle,
    FreeGroupOracle,
    FreeProductOracle,
    GraphGroupOracle,
    GroupOracle,
    ZOracle,
)
from .finite_extension import FiniteExtension, finite_ext_reduce
from .hnn import HnnPresentation, hnn_knapsack, hnn_saturate
from .freeprod import free_product_saturate
from .amalgam import (
    AmalgamPresentation,
    amalgam_knapsack,
    amalgam_to_hnn,
    phi_transform,
)

__all__ = [
    "AmalgamPresentation",
    "FiniteExtension",
    "FiniteGroupOracle",
    "FreeGroupOracle",
    "FreeProductOracle",
    "GraphGroupOracle",
    "GroupOracle",
    "HnnPresentation",
    "KnapsackAutomaton",
    "ZOracle",
    "amalgam_knapsack",
    "amalgam_to_hnn",
    "equation_chain",
    "finite_ext_reduce",
    "free_product_saturate",
    "hnn_knapsack",
    "hnn_saturate",
    "knapsack_to_ka",
    "phi_transform",
    "prepend_word",
    "skeleton_equations",
    "skeletons",
]
