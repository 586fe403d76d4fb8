"""Mehrotra predictor–corrector primal–dual interior-point LP solver.

LP-HTA's Step 1 calls for an interior-point solve of the relaxation P2 (the
paper cites Karmarkar [17]); this module implements the method that replaced
Karmarkar's projective algorithm in practice: the primal–dual path-following
scheme with Mehrotra's predictor–corrector (Mehrotra, SIAM J. Optim. 1992),
solving the normal equations :math:`A D A^T \\Delta y = r` with a dense
Cholesky factorisation per iteration — or, when the standard form carries a
SciPy sparse matrix, with a sparse LU factorisation (``splu``) of the same
regularised normal matrix.  The dense path is untouched and remains the
reference backend (``RunContext(reference=True)`` builds dense programs).

The solver works on :class:`~repro.lp.problem.StandardFormLP`
(min c·x, Ax = b, x ≥ 0) and is exposed through
:func:`~repro.lp.backends.solve` under the name ``"interior-point"``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.sparse.linalg import splu

from repro.context import current_context
from repro.lp.problem import LinearProgram, StandardFormLP
from repro.lp.result import LPResult, LPStatus
from repro.obs.tracer import traced

__all__ = ["IPMOptions", "solve_interior_point", "solve_interior_point_batch"]

_BACKEND_NAME = "interior-point"


class _NumericalBreakdown(Exception):
    """Internal: a Newton system produced non-finite values."""


@dataclass(frozen=True)
class IPMOptions:
    """Tunables for the interior-point solver.

    :param tolerance: relative duality-gap / residual target.
    :param max_iterations: iteration cap before giving up.
    :param step_fraction: fraction of the max step to the boundary taken
        (the classic 0.9995 damping).
    :param divergence_threshold: treat the problem as infeasible/unbounded
        when iterates blow up beyond this magnitude.
    :param fallback_tolerance: accept the best iterate seen at this looser
        tolerance when the numerics break down before the strict target is
        met (near-degenerate vertices can push μ below machine precision
        between two iterations that each miss one criterion).
    :param stall_iterations: give up (``ITERATION_LIMIT``, with best-iterate
        salvage) when this many consecutive iterations fail to improve the
        best error seen — a divergent or cycling block then stops burning
        iterations long before ``max_iterations``.  Healthy Mehrotra runs
        improve almost every iteration, so the default is far outside their
        envelope.  ``0`` disables the guard.  Applied identically by the
        sequential and batched loops, preserving their bit-identity.
    :param max_wall_clock_s: wall-clock budget for one batched mega-solve;
        when exhausted every still-active block is parked with
        ``ITERATION_LIMIT`` (best-iterate salvage applies) so one
        pathological block cannot stall the whole batch.  ``inf`` (default)
        disables the budget; the sequential solver ignores it (wall-clock
        cutoffs are not deterministic, so the default ladder never uses
        one — it exists for explicitly budgeted callers).
    """

    tolerance: float = 1e-9
    max_iterations: int = 200
    step_fraction: float = 0.9995
    divergence_threshold: float = 1e14
    fallback_tolerance: float = 1e-6
    stall_iterations: int = 60
    max_wall_clock_s: float = float("inf")


def _initial_point(
    a: np.ndarray, b: np.ndarray, c: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mehrotra's heuristic starting point (strictly positive x, s)."""
    m = a.shape[0]
    gram = a @ a.T + 1e-10 * np.eye(m)
    try:
        factor = cho_factor(gram)
        x = a.T @ cho_solve(factor, b)
        y = cho_solve(factor, a @ c)
    except (LinAlgError, ValueError):
        x, *_ = np.linalg.lstsq(a, b, rcond=None)
        y, *_ = np.linalg.lstsq(a.T, c, rcond=None)
    s = c - a.T @ y
    return _mehrotra_shift(x, y, s)


def _initial_point_sparse(
    a: "sp.csr_array", b: np.ndarray, c: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mehrotra's starting point computed with a sparse LU of the Gram
    matrix; falls back to dense least squares if the factorisation fails."""
    m = a.shape[0]
    gram = (a @ a.T).tocsc() + 1e-10 * sp.eye_array(m, format="csc")
    try:
        factor = splu(gram.tocsc())
        x = a.T @ factor.solve(b)
        y = factor.solve(a @ c)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise RuntimeError("non-finite Gram solve")
    except (RuntimeError, ValueError):
        dense = a.toarray()
        x, *_ = np.linalg.lstsq(dense, b, rcond=None)
        y, *_ = np.linalg.lstsq(dense.T, c, rcond=None)
    s = c - a.T @ y
    return _mehrotra_shift(x, y, s)


def _mehrotra_shift(
    x: np.ndarray, y: np.ndarray, s: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shift (x, s) strictly inside the positive orthant (Mehrotra's rule)."""
    delta_x = max(-1.5 * float(np.min(x, initial=0.0)), 0.0)
    delta_s = max(-1.5 * float(np.min(s, initial=0.0)), 0.0)
    x = x + delta_x
    s = s + delta_s

    dot = float(x @ s)
    if dot <= 0:
        x = np.maximum(x, 1.0)
        s = np.maximum(s, 1.0)
        dot = float(x @ s)
    sum_x = float(np.sum(x))
    sum_s = float(np.sum(s))
    x = x + 0.5 * dot / max(sum_s, 1e-12)
    s = s + 0.5 * dot / max(sum_x, 1e-12)
    return x, y, s


def _max_step(values: np.ndarray, directions: np.ndarray) -> float:
    """Largest α ∈ (0, 1] keeping ``values + α·directions`` non-negative."""
    negative = directions < 0
    if not np.any(negative):
        return 1.0
    ratios = -values[negative] / directions[negative]
    return float(min(1.0, np.min(ratios)))


def _solve_standard_form(lp: StandardFormLP, options: IPMOptions) -> LPResult:
    """Run the predictor–corrector loop on a standard-form LP."""
    a, b, c = lp.a, lp.b, lp.c
    m, n = a.shape
    sparse = sp.issparse(a)
    if sparse:
        a = sp.csr_array(a, dtype=float)

    if n == 0:
        feasible = bool(np.allclose(b, 0.0))
        return LPResult(
            status=LPStatus.OPTIMAL if feasible else LPStatus.INFEASIBLE,
            x=np.zeros(0) if feasible else None,
            objective=0.0,
            iterations=0,
            backend=_BACKEND_NAME,
        )
    if m == 0:
        # No constraints: minimum of c·x over x ≥ 0.
        if np.any(c < 0):
            return LPResult(LPStatus.UNBOUNDED, None, -np.inf, 0, _BACKEND_NAME)
        return LPResult(LPStatus.OPTIMAL, np.zeros(n), 0.0, 0, _BACKEND_NAME)

    if sparse:
        x, y, s = _initial_point_sparse(a, b, c)
    else:
        x, y, s = _initial_point(a, b, c)
    norm_b = 1.0 + float(np.linalg.norm(b))
    norm_c = 1.0 + float(np.linalg.norm(c))

    best_err = float("inf")
    best: Optional[np.ndarray] = None
    last_improve = 0

    def salvage(failure: LPResult) -> LPResult:
        """Return the best iterate when it already met the loose target.

        Pushing μ toward machine precision can blow up the Newton system
        one iteration *after* an essentially-optimal point; losing that
        point to a NUMERICAL_ERROR would misreport a solved problem.
        """
        if best is not None and best_err < options.fallback_tolerance:
            return LPResult(
                status=LPStatus.OPTIMAL,
                x=best,
                objective=float(c @ best),
                iterations=failure.iterations,
                backend=_BACKEND_NAME,
                message="converged at reduced tolerance",
            )
        return failure

    for iteration in range(1, options.max_iterations + 1):
        r_primal = a @ x - b
        r_dual = a.T @ y + s - c
        mu = float(x @ s) / n

        primal_err = float(np.linalg.norm(r_primal)) / norm_b
        dual_err = float(np.linalg.norm(r_dual)) / norm_c
        gap = abs(float(c @ x) - float(b @ y)) / (1.0 + abs(float(c @ x)))

        err = max(primal_err, dual_err, gap)
        if err < best_err:
            best_err = err
            best = x.copy()
            last_improve = iteration
        if err < options.tolerance:
            return LPResult(
                status=LPStatus.OPTIMAL,
                x=x,
                objective=float(c @ x),
                iterations=iteration - 1,
                backend=_BACKEND_NAME,
            )
        if (
            float(np.max(np.abs(x))) > options.divergence_threshold
            or float(np.max(np.abs(y))) > options.divergence_threshold
        ):
            return salvage(LPResult(
                status=LPStatus.NUMERICAL_ERROR,
                x=None,
                objective=float("nan"),
                iterations=iteration,
                backend=_BACKEND_NAME,
                message="iterates diverged (problem may be infeasible or unbounded)",
            ))
        if (
            options.stall_iterations > 0
            and iteration - last_improve >= options.stall_iterations
        ):
            return salvage(LPResult(
                status=LPStatus.ITERATION_LIMIT,
                x=None,
                objective=float("nan"),
                iterations=iteration,
                backend=_BACKEND_NAME,
                message=(
                    f"stalled: no progress in {options.stall_iterations}"
                    " iterations"
                ),
            ))

        # Diagonal of X S^{-1}, clipped: near a vertex some s_i underflows
        # and the raw ratio overflows, poisoning the normal matrix.
        with np.errstate(over="ignore", divide="ignore"):
            d = np.clip(x / np.maximum(s, 1e-300), 1e-12, 1e12)
        if sparse:
            normal = (a.multiply(d) @ a.T).tocsc()
            if not np.all(np.isfinite(normal.data)):
                return salvage(LPResult(
                    status=LPStatus.NUMERICAL_ERROR,
                    x=None,
                    objective=float("nan"),
                    iterations=iteration,
                    backend=_BACKEND_NAME,
                    message="non-finite normal equations",
                ))
            # Same Tikhonov regularisation as the dense path, applied via a
            # sparse identity so the pattern stays factorisable.
            reg = 1e-12 * (1.0 + float(normal.diagonal().sum()) / m)
            eye = sp.eye_array(m, format="csc")
            try:
                factor = splu((normal + reg * eye).tocsc())
                solve_normal = factor.solve
            except (RuntimeError, ValueError):
                try:
                    factor = splu((normal + (reg + 1e-6) * eye).tocsc())
                    solve_normal = factor.solve
                except (RuntimeError, ValueError):
                    return salvage(LPResult(
                        status=LPStatus.NUMERICAL_ERROR,
                        x=None,
                        objective=float("nan"),
                        iterations=iteration,
                        backend=_BACKEND_NAME,
                        message="normal equations not positive definite",
                    ))
        else:
            normal = (a * d) @ a.T
            if not np.all(np.isfinite(normal)):
                return salvage(LPResult(
                    status=LPStatus.NUMERICAL_ERROR,
                    x=None,
                    objective=float("nan"),
                    iterations=iteration,
                    backend=_BACKEND_NAME,
                    message="non-finite normal equations",
                ))
            normal[np.diag_indices_from(normal)] += 1e-12 * (1.0 + np.trace(normal) / m)
            try:
                factor = cho_factor(normal)
            except (LinAlgError, ValueError):
                normal[np.diag_indices_from(normal)] += 1e-6
                try:
                    factor = cho_factor(normal)
                except (LinAlgError, ValueError):
                    return salvage(LPResult(
                        status=LPStatus.NUMERICAL_ERROR,
                        x=None,
                        objective=float("nan"),
                        iterations=iteration,
                        backend=_BACKEND_NAME,
                        message="normal equations not positive definite",
                    ))
            solve_normal = lambda rhs, _f=factor: cho_solve(_f, rhs)  # noqa: E731

        def newton_direction(rxs: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
            """Solve the KKT system for a given complementarity residual.

            Raises :class:`_NumericalBreakdown` if the system degenerates
            (tiny s with large residuals — the signature of an infeasible
            or unbounded instance pushed past the numerics).
            """
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                s_safe = np.maximum(s, 1e-300)
                x_safe = np.maximum(x, 1e-300)
                rhs = -r_primal - a @ (d * r_dual) + a @ (rxs / s_safe)
                if not np.all(np.isfinite(rhs)):
                    raise _NumericalBreakdown
                dy = solve_normal(rhs)
                if not np.all(np.isfinite(dy)):
                    raise _NumericalBreakdown
                dx = d * (a.T @ dy + r_dual) - rxs / s_safe
                ds = -(rxs + s * dx) / x_safe
            if not (np.all(np.isfinite(dx)) and np.all(np.isfinite(ds))):
                raise _NumericalBreakdown
            return dx, dy, ds

        try:
            # Predictor (affine-scaling) direction.
            dx_aff, dy_aff, ds_aff = newton_direction(x * s)
            alpha_p_aff = _max_step(x, dx_aff)
            alpha_d_aff = _max_step(s, ds_aff)
            mu_aff = float(
                (x + alpha_p_aff * dx_aff) @ (s + alpha_d_aff * ds_aff)
            ) / n
            sigma = (mu_aff / mu) ** 3 if mu > 0 else 0.0

            # Corrector direction with centering.
            rxs = x * s + dx_aff * ds_aff - sigma * mu
            dx, dy, ds = newton_direction(rxs)
        except _NumericalBreakdown:
            return salvage(LPResult(
                status=LPStatus.NUMERICAL_ERROR,
                x=None,
                objective=float("nan"),
                iterations=iteration,
                backend=_BACKEND_NAME,
                message="Newton system degenerated (likely infeasible/unbounded)",
            ))

        alpha_p = options.step_fraction * _max_step(x, dx)
        alpha_d = options.step_fraction * _max_step(s, ds)
        x = x + alpha_p * dx
        y = y + alpha_d * dy
        s = s + alpha_d * ds

        if np.any(x <= 0) or np.any(s <= 0):
            return salvage(LPResult(
                status=LPStatus.NUMERICAL_ERROR,
                x=None,
                objective=float("nan"),
                iterations=iteration,
                backend=_BACKEND_NAME,
                message="iterate left the positive orthant",
            ))

    return salvage(LPResult(
        status=LPStatus.ITERATION_LIMIT,
        x=None,
        objective=float("nan"),
        iterations=options.max_iterations,
        backend=_BACKEND_NAME,
        message="no convergence within the iteration cap",
    ))


class _IPMBlock:
    """Per-block bookkeeping for :func:`solve_interior_point_batch`."""

    __slots__ = (
        "idx", "a", "b", "c", "n", "m", "ns", "ms", "sparse",
        "norm_b", "norm_c", "best_err", "best", "last_improve",
        "solve_normal",
    )


def _solve_standard_form_batch(
    blocks: Sequence[StandardFormLP], options: IPMOptions
) -> List[LPResult]:
    """Lockstep Mehrotra loop over many independent standard-form LPs.

    The per-iteration elementwise work (scaling diagonal, direction
    formulas, updates) runs on the concatenated state vectors; the pieces
    that must not mix across blocks — constraint matvecs, the normal
    equations (one ``splu``/Cholesky factorisation *per block*), residual
    norms, step-length ratio tests and convergence decisions — run on each
    block's contiguous slice, exactly as :func:`_solve_standard_form`
    would.  Per-block convergence masking: a converged, diverged, or
    numerically broken block is frozen (its result recorded with its own
    iteration count, its state slices reset to benign constants) while the
    stragglers keep iterating; each block keeps its own best-iterate
    salvage exactly like the sequential solver.
    """
    num = len(blocks)
    results: List[Optional[LPResult]] = [None] * num

    info: List[_IPMBlock] = []
    n_off = [0]
    m_off = [0]
    for idx, lp in enumerate(blocks):
        a, b, c = lp.a, lp.b, lp.c
        m, n = a.shape
        if n == 0:
            feasible = bool(np.allclose(b, 0.0))
            results[idx] = LPResult(
                status=LPStatus.OPTIMAL if feasible else LPStatus.INFEASIBLE,
                x=np.zeros(0) if feasible else None,
                objective=0.0,
                iterations=0,
                backend=_BACKEND_NAME,
            )
            continue
        if m == 0:
            if np.any(c < 0):
                results[idx] = LPResult(
                    LPStatus.UNBOUNDED, None, -np.inf, 0, _BACKEND_NAME
                )
            else:
                results[idx] = LPResult(
                    LPStatus.OPTIMAL, np.zeros(n), 0.0, 0, _BACKEND_NAME
                )
            continue
        blk = _IPMBlock()
        blk.idx = idx
        blk.sparse = sp.issparse(a)
        blk.a = sp.csr_array(a, dtype=float) if blk.sparse else a
        blk.b = b
        blk.c = c
        blk.n = n
        blk.m = m
        blk.ns = slice(n_off[-1], n_off[-1] + n)
        blk.ms = slice(m_off[-1], m_off[-1] + m)
        n_off.append(n_off[-1] + n)
        m_off.append(m_off[-1] + m)
        blk.norm_b = 1.0 + float(np.linalg.norm(b))
        blk.norm_c = 1.0 + float(np.linalg.norm(c))
        blk.best_err = float("inf")
        blk.best = None
        blk.last_improve = 0
        blk.solve_normal = None
        info.append(blk)

    n_tot = n_off[-1]
    m_tot = m_off[-1]
    n_sizes = np.array([blk.n for blk in info], dtype=np.intp)
    m_sizes = np.array([blk.m for blk in info], dtype=np.intp)

    c_cat = np.zeros(n_tot)
    b_cat = np.zeros(m_tot)
    x = np.ones(n_tot)
    y = np.zeros(m_tot)
    s = np.ones(n_tot)
    for blk in info:
        c_cat[blk.ns] = blk.c
        b_cat[blk.ms] = blk.b
        if blk.sparse:
            xb, yb, sb = _initial_point_sparse(blk.a, blk.b, blk.c)
        else:
            xb, yb, sb = _initial_point(blk.a, blk.b, blk.c)
        x[blk.ns] = xb
        y[blk.ms] = yb
        s[blk.ns] = sb

    # Per-block matvec landing buffers: active slices are refilled every
    # use, frozen slices zeroed at freeze time.
    ax = np.zeros(m_tot)
    aty = np.zeros(n_tot)
    m1 = np.zeros(m_tot)
    m2 = np.zeros(m_tot)
    dy = np.zeros(m_tot)
    atdy = np.zeros(n_tot)

    ap_blocks = np.zeros(len(info))
    ad_blocks = np.zeros(len(info))
    sm_blocks = np.zeros(len(info))

    active = list(info)
    # Position of each block in the original `info` order, for the repeat
    # expansion arrays (frozen entries stay 0).
    pos = {blk.idx: i for i, blk in enumerate(info)}

    def salvage(blk: _IPMBlock, failure: LPResult) -> LPResult:
        if blk.best is not None and blk.best_err < options.fallback_tolerance:
            return LPResult(
                status=LPStatus.OPTIMAL,
                x=blk.best,
                objective=float(blk.c @ blk.best),
                iterations=failure.iterations,
                backend=_BACKEND_NAME,
                message="converged at reduced tolerance",
            )
        return failure

    def freeze(blk: _IPMBlock, result: LPResult) -> None:
        results[blk.idx] = result
        ns, ms = blk.ns, blk.ms
        x[ns] = 1.0
        s[ns] = 1.0
        y[ms] = 0.0
        ax[ms] = 0.0
        aty[ns] = 0.0
        m1[ms] = 0.0
        m2[ms] = 0.0
        dy[ms] = 0.0
        atdy[ns] = 0.0
        p = pos[blk.idx]
        ap_blocks[p] = 0.0
        ad_blocks[p] = 0.0
        sm_blocks[p] = 0.0
        blk.solve_normal = None
        blk.best = None

    def numerical(message: str, iteration: int) -> LPResult:
        return LPResult(
            status=LPStatus.NUMERICAL_ERROR,
            x=None,
            objective=float("nan"),
            iterations=iteration,
            backend=_BACKEND_NAME,
            message=message,
        )

    deadline = (
        time.perf_counter() + options.max_wall_clock_s
        if np.isfinite(options.max_wall_clock_s)
        else None
    )

    for iteration in range(1, options.max_iterations + 1):
        if not active:
            break
        if deadline is not None and time.perf_counter() > deadline:
            # Budget exhausted: park every straggler with its best iterate
            # rather than letting one pathological block hold the batch.
            for blk in active:
                freeze(
                    blk,
                    salvage(
                        blk,
                        LPResult(
                            status=LPStatus.ITERATION_LIMIT,
                            x=None,
                            objective=float("nan"),
                            iterations=iteration - 1,
                            backend=_BACKEND_NAME,
                            message="wall-clock budget exhausted",
                        ),
                    ),
                )
            active = []
            break
        for blk in active:
            ax[blk.ms] = blk.a @ x[blk.ns]
            aty[blk.ns] = blk.a.T @ y[blk.ms]
        r_primal = ax - b_cat
        r_dual = aty + s - c_cat

        still = []
        for blk in active:
            ns, ms = blk.ns, blk.ms
            xb, sb, yb = x[ns], s[ns], y[ms]
            mu_b = float(xb @ sb) / blk.n
            rp = r_primal[ms]
            rd = r_dual[ns]
            primal_err = float(np.linalg.norm(rp)) / blk.norm_b
            dual_err = float(np.linalg.norm(rd)) / blk.norm_c
            cx = float(blk.c @ xb)
            gap = abs(cx - float(blk.b @ yb)) / (1.0 + abs(cx))
            err = max(primal_err, dual_err, gap)
            if err < blk.best_err:
                blk.best_err = err
                blk.best = xb.copy()
                blk.last_improve = iteration
            if err < options.tolerance:
                freeze(
                    blk,
                    LPResult(
                        status=LPStatus.OPTIMAL,
                        x=xb.copy(),
                        objective=cx,
                        iterations=iteration - 1,
                        backend=_BACKEND_NAME,
                    ),
                )
            elif (
                float(np.max(np.abs(xb))) > options.divergence_threshold
                or float(np.max(np.abs(yb), initial=0.0))
                > options.divergence_threshold
            ):
                freeze(
                    blk,
                    salvage(
                        blk,
                        numerical(
                            "iterates diverged (problem may be infeasible"
                            " or unbounded)",
                            iteration,
                        ),
                    ),
                )
            elif (
                options.stall_iterations > 0
                and iteration - blk.last_improve >= options.stall_iterations
            ):
                # Same guard (and salvage) as the sequential loop: a block
                # making no progress is parked so it cannot pin the batch
                # to the full iteration cap.
                freeze(
                    blk,
                    salvage(
                        blk,
                        LPResult(
                            status=LPStatus.ITERATION_LIMIT,
                            x=None,
                            objective=float("nan"),
                            iterations=iteration,
                            backend=_BACKEND_NAME,
                            message=(
                                "stalled: no progress in"
                                f" {options.stall_iterations} iterations"
                            ),
                        ),
                    ),
                )
            else:
                still.append(blk)
        active = still
        if not active:
            break

        with np.errstate(over="ignore", divide="ignore"):
            d = np.clip(x / np.maximum(s, 1e-300), 1e-12, 1e12)

        # Per-block normal-equation factorisation (splu when sparse,
        # Cholesky otherwise), with the sequential path's regularisation
        # and retry semantics; failures freeze just that block.
        still = []
        for blk in active:
            factor_solve = _factorise_block(blk, d[blk.ns])
            if factor_solve is None:
                freeze(
                    blk,
                    salvage(
                        blk,
                        numerical(
                            "normal equations not positive definite"
                            if blk.solve_normal != "nonfinite"
                            else "non-finite normal equations",
                            iteration,
                        ),
                    ),
                )
            else:
                blk.solve_normal = factor_solve
                still.append(blk)
        active = still
        if not active:
            continue

        def newton(rxs: np.ndarray, act: List[_IPMBlock]):
            """Lockstep KKT solve; returns directions plus failed blocks."""
            failed = []
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                s_safe = np.maximum(s, 1e-300)
                x_safe = np.maximum(x, 1e-300)
                t1 = d * r_dual
                t2 = rxs / s_safe
                for blk in act:
                    m1[blk.ms] = blk.a @ t1[blk.ns]
                    m2[blk.ms] = blk.a @ t2[blk.ns]
                rhs = -r_primal - m1 + m2
                for blk in act:
                    rb = rhs[blk.ms]
                    if not np.all(np.isfinite(rb)):
                        failed.append(blk)
                        dy[blk.ms] = 0.0
                        continue
                    dyb = blk.solve_normal(rb)
                    if not np.all(np.isfinite(dyb)):
                        failed.append(blk)
                        dy[blk.ms] = 0.0
                        continue
                    dy[blk.ms] = dyb
                    atdy[blk.ns] = blk.a.T @ dyb
                dx = d * (atdy + r_dual) - t2
                ds = -(rxs + s * dx) / x_safe
            failed_set = set(id(blk) for blk in failed)
            for blk in act:
                if id(blk) in failed_set:
                    continue
                if not (
                    np.all(np.isfinite(dx[blk.ns]))
                    and np.all(np.isfinite(ds[blk.ns]))
                ):
                    failed.append(blk)
            return dx, ds, failed

        def drop_failed(
            failed: List[_IPMBlock],
            act: List[_IPMBlock],
            arrays: Tuple[np.ndarray, ...],
        ) -> List[_IPMBlock]:
            """Freeze broken blocks and sanitise their (variable-length)
            direction slices so the global elementwise passes stay finite."""
            if not failed:
                return act
            failed_ids = set(id(blk) for blk in failed)
            for blk in failed:
                freeze(
                    blk,
                    salvage(
                        blk,
                        numerical(
                            "Newton system degenerated (likely"
                            " infeasible/unbounded)",
                            iteration,
                        ),
                    ),
                )
                for arr in arrays:
                    arr[blk.ns] = 0.0
            return [blk for blk in act if id(blk) not in failed_ids]

        # Predictor (affine-scaling) direction.
        rxs_aff = x * s
        dx_a, ds_a, failed = newton(rxs_aff, active)
        active = drop_failed(failed, active, (dx_a, ds_a, rxs_aff))
        if not active:
            continue

        for blk in active:
            ns = blk.ns
            ap_aff = _max_step(x[ns], dx_a[ns])
            ad_aff = _max_step(s[ns], ds_a[ns])
            mu_b = float(x[ns] @ s[ns]) / blk.n
            mu_aff = (
                float((x[ns] + ap_aff * dx_a[ns]) @ (s[ns] + ad_aff * ds_a[ns]))
                / blk.n
            )
            sigma = (mu_aff / mu_b) ** 3 if mu_b > 0 else 0.0
            sm_blocks[pos[blk.idx]] = sigma * mu_b

        # Corrector direction with centering.
        sm_v = np.repeat(sm_blocks, n_sizes)
        rxs = x * s + dx_a * ds_a - sm_v
        dx, ds, failed = newton(rxs, active)
        active = drop_failed(failed, active, (dx, ds))
        if not active:
            continue

        for blk in active:
            p = pos[blk.idx]
            ap_blocks[p] = options.step_fraction * _max_step(
                x[blk.ns], dx[blk.ns]
            )
            ad_blocks[p] = options.step_fraction * _max_step(
                s[blk.ns], ds[blk.ns]
            )
        ap_v = np.repeat(ap_blocks, n_sizes)
        ad_v = np.repeat(ad_blocks, n_sizes)
        ad_m = np.repeat(ad_blocks, m_sizes)
        x = x + ap_v * dx
        y = y + ad_m * dy
        s = s + ad_v * ds

        still = []
        for blk in active:
            ns = blk.ns
            if np.any(x[ns] <= 0) or np.any(s[ns] <= 0):
                freeze(
                    blk,
                    salvage(
                        blk,
                        numerical("iterate left the positive orthant", iteration),
                    ),
                )
            else:
                still.append(blk)
        active = still

    for blk in active:
        results[blk.idx] = salvage(
            blk,
            LPResult(
                status=LPStatus.ITERATION_LIMIT,
                x=None,
                objective=float("nan"),
                iterations=options.max_iterations,
                backend=_BACKEND_NAME,
                message="no convergence within the iteration cap",
            ),
        )
    return results  # type: ignore[return-value]


def _factorise_block(
    blk: _IPMBlock, d_b: np.ndarray
) -> Optional[Callable[[np.ndarray], np.ndarray]]:
    """Factorise one block's regularised normal equations.

    Mirrors the sequential solver's sparse/dense branches (same
    regularisation, same one-shot retry); returns the solve callable or
    ``None`` on failure.  Marks ``blk.solve_normal = "nonfinite"`` when
    the failure was a non-finite normal matrix, so the caller can report
    the sequential solver's message for that case.
    """
    a = blk.a
    m = blk.m
    if blk.sparse:
        normal = (a.multiply(d_b) @ a.T).tocsc()
        if not np.all(np.isfinite(normal.data)):
            blk.solve_normal = "nonfinite"
            return None
        reg = 1e-12 * (1.0 + float(normal.diagonal().sum()) / m)
        eye = sp.eye_array(m, format="csc")
        try:
            return splu((normal + reg * eye).tocsc()).solve
        except (RuntimeError, ValueError):
            try:
                return splu((normal + (reg + 1e-6) * eye).tocsc()).solve
            except (RuntimeError, ValueError):
                return None
    normal = (a * d_b) @ a.T
    if not np.all(np.isfinite(normal)):
        blk.solve_normal = "nonfinite"
        return None
    normal[np.diag_indices_from(normal)] += 1e-12 * (1.0 + np.trace(normal) / m)
    try:
        factor = cho_factor(normal)
    except (LinAlgError, ValueError):
        normal[np.diag_indices_from(normal)] += 1e-6
        try:
            factor = cho_factor(normal)
        except (LinAlgError, ValueError):
            return None
    return lambda rhs, _f=factor: cho_solve(_f, rhs)


def solve_interior_point_batch(
    problems: Union[Sequence[Union[LinearProgram, StandardFormLP]], object],
    options: IPMOptions = IPMOptions(),
) -> List[LPResult]:
    """Solve many independent LPs in lockstep with per-block masking.

    Accepts a sequence of :class:`LinearProgram`/:class:`StandardFormLP`
    instances or a ``BatchedProblem`` from
    :mod:`repro.core.lp_builder` (recognised structurally via its
    ``problems``/``standard`` attributes, keeping this module free of a
    ``core`` dependency).  Bounded-variable programs are converted to
    standard form and their solutions projected back, exactly like
    :func:`solve_interior_point`.  In reference mode the batch degrades to
    a sequential per-problem loop so differential baselines never see the
    batched path.

    :param problems: the LPs to solve (ragged sizes and a batch of one are
        fine).
    :param options: shared solver tunables.
    :returns: one :class:`LPResult` per input, in input order.
    """
    standard_attr = getattr(problems, "standard", None)
    if standard_attr is not None:
        originals: List[Optional[LinearProgram]] = list(
            getattr(problems, "problems")
        )
        standards: List[StandardFormLP] = list(standard_attr)
    else:
        originals = []
        standards = []
        for problem in problems:  # type: ignore[union-attr]
            if isinstance(problem, LinearProgram):
                originals.append(problem)
                standards.append(problem.to_standard_form())
            else:
                originals.append(None)
                standards.append(problem)
    if not standards:
        return []
    if current_context().reference:
        return [
            solve_interior_point(
                original if original is not None else standard, options
            )
            for original, standard in zip(originals, standards)
        ]
    raw = _solve_standard_form_batch(standards, options)
    out: List[LPResult] = []
    for original, standard, result in zip(originals, standards, raw):
        if original is not None and result.status.ok:
            x = standard.extract_original(result.x)
            out.append(
                LPResult(
                    status=result.status,
                    x=x,
                    objective=original.objective(x),
                    iterations=result.iterations,
                    backend=result.backend,
                    message=result.message,
                )
            )
        else:
            out.append(result)
    return out


@traced("lp.interior_point")
def solve_interior_point(
    problem: Union[LinearProgram, StandardFormLP],
    options: IPMOptions = IPMOptions(),
) -> LPResult:
    """Solve an LP with the Mehrotra predictor–corrector method.

    Accepts either a bounded-variable :class:`LinearProgram` (converted to
    standard form internally; the returned ``x`` is in the original variable
    space) or a :class:`StandardFormLP`.

    :param problem: the LP to solve.
    :param options: solver tunables.
    """
    if isinstance(problem, LinearProgram):
        standard = problem.to_standard_form()
        result = _solve_standard_form(standard, options)
        if result.status.ok:
            x = standard.extract_original(result.x)
            return LPResult(
                status=result.status,
                x=x,
                objective=problem.objective(x),
                iterations=result.iterations,
                backend=result.backend,
                message=result.message,
            )
        return result
    return _solve_standard_form(problem, options)
