"""Exponent equations over graph groups: types, preprocessing, solving, verification."""

from .equations import (
    Assignment,
    Const,
    ExponentEquation,
    Power,
    SolveReport,
    abelian_relaxation,
    chain_equation,
    preprocess,
    solution_bound,
    solve_search,
    verify,
)
from .exact import solve_exact

__all__ = [
    "Assignment",
    "Const",
    "ExponentEquation",
    "Power",
    "SolveReport",
    "abelian_relaxation",
    "chain_equation",
    "preprocess",
    "solution_bound",
    "solve_exact",
    "solve_search",
    "verify",
]
