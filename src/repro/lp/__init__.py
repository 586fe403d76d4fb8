"""Linear-programming substrate, implemented from scratch.

LP-HTA's Step 1 solves the relaxed problem P2 with an interior-point method
(the paper cites Karmarkar [17]).  This package provides:

- :class:`LinearProgram` — a bounded-variable LP and its standard form,
- :func:`solve_interior_point` — a Mehrotra predictor–corrector primal–dual
  interior-point solver (the modern production descendant of [17]),
- :func:`solve_simplex` — a dense two-phase simplex, used for cross-checks
  and for small exact subproblems,
- :func:`solve` — a backend dispatcher (including an optional scipy backend
  used only to validate our solvers in the test suite).
"""

from repro.lp.problem import LinearProgram, StandardFormLP
from repro.lp.result import LPResult, LPStatus
from repro.lp.interior_point import solve_interior_point
from repro.lp.simplex import solve_simplex
from repro.lp.structured import GroupedBoundedLP, solve_structured
from repro.lp.presolve import PresolveResult, presolve, restore
from repro.lp.backends import available_backends, solve

__all__ = [
    "GroupedBoundedLP",
    "LinearProgram",
    "LPResult",
    "LPStatus",
    "PresolveResult",
    "StandardFormLP",
    "available_backends",
    "presolve",
    "restore",
    "solve",
    "solve_interior_point",
    "solve_simplex",
    "solve_structured",
]
