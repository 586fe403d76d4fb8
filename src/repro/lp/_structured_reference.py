"""Seed implementation of the structured IPM, kept as a reference path.

This is the original (pre-optimisation) body of
:func:`repro.lp.structured.solve_structured`, preserved verbatim so that

- the differential tests can assert the optimised solver is bit-identical
  to it, and
- ``RunContext(reference=True)`` (see :mod:`repro.context`) can route
  solves through the original code, which is what ``scripts/bench_perf.py``
  times the optimised pipeline against.

Do not "improve" this module: its value is being frozen.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

import numpy as np

from repro.lp.result import LPResult, LPStatus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.lp.structured import GroupedBoundedLP, StructuredIPMOptions

__all__ = ["solve_structured_reference"]

_BACKEND_NAME = "structured-ipm"


def solve_structured_reference(
    lp: "GroupedBoundedLP", options: "StructuredIPMOptions"
) -> LPResult:
    """Solve a :class:`GroupedBoundedLP` with the seed Mehrotra IPM."""
    n = lp.num_vars
    k = lp.num_coupling
    m_g = lp.num_groups
    c = lp.c
    r_mat = lp.coupling_a
    bounded = np.isfinite(lp.upper)
    u = lp.upper

    # ---- starting point -------------------------------------------------
    x = np.where(bounded, np.minimum(u * 0.5, 1.0), 1.0)
    x = np.maximum(x, 1e-3)
    s = np.ones(k)
    w = np.where(bounded, u - x, 1.0)  # only meaningful where bounded
    w = np.maximum(w, 1e-3)
    y_g = np.zeros(m_g)
    y_r = np.zeros(k)
    z = np.ones(n)          # dual of x >= 0
    z_s = np.ones(k)        # dual of s >= 0
    v = np.where(bounded, 1.0, 0.0)  # dual of x <= u

    norm_b = 1.0 + float(np.linalg.norm(lp.group_rhs)) + float(np.linalg.norm(lp.coupling_b))
    norm_c = 1.0 + float(np.linalg.norm(c))
    num_comp = n + k + int(bounded.sum())

    def complementarity() -> float:
        return (
            float(x @ z) + float(s @ z_s) + float(w[bounded] @ v[bounded])
        ) / num_comp

    for iteration in range(1, options.max_iterations + 1):
        # Residuals.
        r_groups = lp.group_sums(x) - lp.group_rhs
        r_coupling = (r_mat @ x + s - lp.coupling_b) if k else np.zeros(0)
        r_upper = np.where(bounded, x + w - u, 0.0)
        r_dual_x = (
            (r_mat.T @ y_r if k else 0.0) + y_g[lp.group_index] + z - v - c
        )
        r_dual_s = y_r + z_s if k else np.zeros(0)

        mu = complementarity()
        primal_err = (
            float(np.linalg.norm(r_groups))
            + float(np.linalg.norm(r_coupling))
            + float(np.linalg.norm(r_upper))
        ) / norm_b
        dual_err = (
            float(np.linalg.norm(r_dual_x)) + float(np.linalg.norm(r_dual_s))
        ) / norm_c
        if max(primal_err, dual_err, mu) < options.tolerance:
            return LPResult(
                status=LPStatus.OPTIMAL,
                x=x.copy(),
                objective=lp.objective(x),
                iterations=iteration - 1,
                backend=_BACKEND_NAME,
            )

        # Scaling diagonals (clip to keep the Schur system finite).
        with np.errstate(over="ignore", divide="ignore"):
            d_x = z / np.maximum(x, 1e-300) + np.where(
                bounded, v / np.maximum(w, 1e-300), 0.0
            )
            d_s = z_s / np.maximum(s, 1e-300) if k else np.zeros(0)
        theta_x = 1.0 / np.clip(d_x, 1e-12, 1e12)
        theta_s = 1.0 / np.clip(d_s, 1e-12, 1e12) if k else np.zeros(0)

        # Normal-equation blocks.
        diag_g = np.maximum(lp.group_sums(theta_x), 1e-300)
        if k:
            rt = r_mat * theta_x  # (K, n) scaled rows
            u_block = np.empty((m_g, k))
            for col in range(k):
                u_block[:, col] = lp.group_sums(rt[col])
            s_block = rt @ r_mat.T + np.diag(theta_s)
        else:
            u_block = np.zeros((m_g, 0))
            s_block = np.zeros((0, 0))

        def solve_normal(rhs_g: np.ndarray, rhs_r: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            """Solve [[D_g, U], [Uᵀ, S]] (dy_g, dy_r) = (rhs_g, rhs_r)."""
            if k == 0:
                return rhs_g / diag_g, np.zeros(0)
            dg_inv_rhs = rhs_g / diag_g
            schur = s_block - u_block.T @ (u_block / diag_g[:, None])
            schur[np.diag_indices_from(schur)] += 1e-12 * (1.0 + np.trace(schur) / max(k, 1))
            dy_r = np.linalg.solve(schur, rhs_r - u_block.T @ dg_inv_rhs)
            dy_g = (rhs_g - u_block @ dy_r) / diag_g
            return dy_g, dy_r

        def newton(rxz: np.ndarray, rwv: np.ndarray, rsz: np.ndarray):
            """One KKT solve for given complementarity residuals."""
            # Collapse to the normal equations in (dy_g, dy_r).
            g_x = r_dual_x - rxz / np.maximum(x, 1e-300)
            if np.any(bounded):
                g_x = g_x + np.where(
                    bounded,
                    rwv / np.maximum(w, 1e-300)
                    - (v / np.maximum(w, 1e-300)) * r_upper,
                    0.0,
                )
            # dx = theta_x (A'dy + g_x) form:
            rhs_g = -r_groups - lp.group_sums(theta_x * g_x)
            if k:
                g_s = r_dual_s - rsz / np.maximum(s, 1e-300)
                rhs_r = -r_coupling - rt @ g_x - theta_s * g_s
            else:
                rhs_r = np.zeros(0)
            dy_g, dy_r = solve_normal(rhs_g, rhs_r)
            at_dy = dy_g[lp.group_index] + (r_mat.T @ dy_r if k else 0.0)
            dx = theta_x * (at_dy + g_x)
            dz = -(rxz + z * dx) / np.maximum(x, 1e-300)
            dw = np.where(bounded, -r_upper - dx, 0.0)
            dv = np.where(
                bounded, -(rwv + v * dw) / np.maximum(w, 1e-300), 0.0
            )
            if k:
                ds = theta_s * (dy_r + g_s)
                dz_s = -(rsz + z_s * ds) / np.maximum(s, 1e-300)
            else:
                ds = np.zeros(0)
                dz_s = np.zeros(0)
            return dx, ds, dw, dy_g, dy_r, dz, dz_s, dv

        def max_step(values: np.ndarray, deltas: np.ndarray, mask=None) -> float:
            if mask is not None:
                values = values[mask]
                deltas = deltas[mask]
            negative = deltas < 0
            if not np.any(negative):
                return 1.0
            return float(min(1.0, np.min(-values[negative] / deltas[negative])))

        # Predictor.
        rxz_aff = x * z
        rwv_aff = np.where(bounded, w * v, 0.0)
        rsz_aff = s * z_s if k else np.zeros(0)
        aff = newton(rxz_aff, rwv_aff, rsz_aff)
        dx_a, ds_a, dw_a, _, _, dz_a, dzs_a, dv_a = aff
        alpha_p = min(
            max_step(x, dx_a),
            max_step(s, ds_a) if k else 1.0,
            max_step(w, dw_a, bounded),
        )
        alpha_d = min(
            max_step(z, dz_a),
            max_step(z_s, dzs_a) if k else 1.0,
            max_step(v, dv_a, bounded),
        )
        mu_aff = (
            float((x + alpha_p * dx_a) @ (z + alpha_d * dz_a))
            + (float((s + alpha_p * ds_a) @ (z_s + alpha_d * dzs_a)) if k else 0.0)
            + float(
                (w[bounded] + alpha_p * dw_a[bounded])
                @ (v[bounded] + alpha_d * dv_a[bounded])
            )
        ) / num_comp
        sigma = (mu_aff / mu) ** 3 if mu > 0 else 0.0

        # Corrector.
        rxz = x * z + dx_a * dz_a - sigma * mu
        rwv = np.where(bounded, w * v + dw_a * dv_a - sigma * mu, 0.0)
        rsz = (s * z_s + ds_a * dzs_a - sigma * mu) if k else np.zeros(0)
        dx, ds, dw, dy_g, dy_r, dz, dz_s, dv = newton(rxz, rwv, rsz)

        alpha_p = options.step_fraction * min(
            max_step(x, dx),
            max_step(s, ds) if k else 1.0,
            max_step(w, dw, bounded),
        )
        alpha_d = options.step_fraction * min(
            max_step(z, dz),
            max_step(z_s, dz_s) if k else 1.0,
            max_step(v, dv, bounded),
        )
        x = x + alpha_p * dx
        s = s + alpha_p * ds
        w = np.where(bounded, w + alpha_p * dw, w)
        y_g = y_g + alpha_d * dy_g
        y_r = y_r + alpha_d * dy_r
        z = z + alpha_d * dz
        z_s = z_s + alpha_d * dz_s
        v = np.where(bounded, v + alpha_d * dv, v)

        if np.any(x <= 0) or np.any(z <= 0) or (k and (np.any(s <= 0) or np.any(z_s <= 0))):
            return LPResult(
                status=LPStatus.NUMERICAL_ERROR,
                x=None,
                objective=float("nan"),
                iterations=iteration,
                backend=_BACKEND_NAME,
                message="iterate left the positive orthant",
            )

    return LPResult(
        status=LPStatus.ITERATION_LIMIT,
        x=None,
        objective=float("nan"),
        iterations=options.max_iterations,
        backend=_BACKEND_NAME,
        message="no convergence within the iteration cap",
    )
