"""Knapsack and exponent equations over graph groups (right-angled Artin groups)."""

from .traces import (
    IndependenceAlphabet,
    Trace,
    connected_components,
    is_connected,
)
from .groups import (
    DoubledAlphabet,
    GroupElement,
    cyclic_reduce,
    free_reduce,
    mult,
    power_nf,
)
from .slp import Slp, expand_capped, val_length

__all__ = [
    "DoubledAlphabet",
    "GroupElement",
    "IndependenceAlphabet",
    "Slp",
    "Trace",
    "connected_components",
    "cyclic_reduce",
    "expand_capped",
    "free_reduce",
    "is_connected",
    "mult",
    "power_nf",
    "val_length",
]

__version__ = "0.1.0"
