"""Structured interior-point solver for P2-shaped linear programs.

The relaxation P2 (Section III-A) has a very particular shape:

.. math::

   \\min c^T x \\quad \\text{s.t.} \\quad
   \\sum_{i \\in g} x_i = b_g \\; \\forall g, \\quad
   R x \\le r, \\quad 0 \\le x \\le u,

where the groups *g* partition the variables (one group per task: C4) and
the coupling block *R* has only a few rows (one per device plus one for the
base station: C2/C3).  A generic dense solver pays O((nm)³) per iteration;
here the normal-equations matrix :math:`A \\Theta A^T` is block
``[[diagonal, U], [Uᵀ, small]]``, so each Newton step costs
O(n·K + K³) with K = #coupling rows — effectively linear in the number of
tasks.  This is what lets the figure benches sweep to 900 tasks.

The algorithm is the same Mehrotra predictor–corrector as
:mod:`repro.lp.interior_point`, extended with native variable upper bounds
(no slack blow-up) following the standard bounded-variable derivation
(Wright, *Primal-Dual Interior-Point Methods*, ch. 10).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.context import current_context
from repro.lp._structured_reference import solve_structured_reference
from repro.lp.result import LPResult, LPStatus

__all__ = [
    "GroupedBoundedLP",
    "StructuredIPMOptions",
    "solve_structured",
    "solve_structured_batch",
]

_BACKEND_NAME = "structured-ipm"


@dataclass(frozen=True)
class StructuredIPMOptions:
    """Tunables for the structured solver.

    :param tolerance: relative residual / complementarity target.  The
        default stops at 1e-8: the scaling-matrix clipping puts the
        achievable floor near 1e-9, where the last digits cost dozens of
        stalled iterations for nothing the rounding step could ever see.
    :param max_iterations: iteration cap.
    :param step_fraction: damping of the step to the boundary.
    """

    tolerance: float = 1e-8
    max_iterations: int = 200
    step_fraction: float = 0.9995


class GroupedBoundedLP:
    """A P2-shaped LP: partitioned equality groups + few coupling rows.

    :param c: objective, length n.
    :param group_index: for each variable, the index of its equality group
        (every variable belongs to exactly one group).
    :param group_rhs: right-hand side :math:`b_g` per group.
    :param coupling_a: coupling inequality matrix, shape (K, n); may be
        empty (K = 0).
    :param coupling_b: coupling right-hand sides, length K.
    :param upper: per-variable upper bounds (np.inf allowed).
    """

    def __init__(
        self,
        c: np.ndarray,
        group_index: np.ndarray,
        group_rhs: np.ndarray,
        coupling_a: Optional[np.ndarray] = None,
        coupling_b: Optional[np.ndarray] = None,
        upper: Optional[np.ndarray] = None,
    ) -> None:
        self.c = np.asarray(c, dtype=float)
        n = self.c.shape[0]
        self.group_index = np.asarray(group_index, dtype=int)
        if self.group_index.shape != (n,):
            raise ValueError("group_index must map every variable")
        self.group_rhs = np.asarray(group_rhs, dtype=float)
        num_groups = self.group_rhs.shape[0]
        if num_groups == 0:
            raise ValueError("need at least one equality group")
        if self.group_index.min(initial=0) < 0 or (
            n > 0 and self.group_index.max() >= num_groups
        ):
            raise ValueError("group_index out of range")

        if coupling_a is None:
            coupling_a = np.zeros((0, n))
            coupling_b = np.zeros(0)
        # C order always: the batch solver stacks these matrices, and the
        # BLAS kernel a matvec runs depends on the operand's layout.
        self.coupling_a = np.ascontiguousarray(coupling_a, dtype=float)
        self.coupling_b = np.asarray(coupling_b, dtype=float)
        if self.coupling_a.shape[1] != n:
            raise ValueError(f"coupling_a must have {n} columns")
        if self.coupling_b.shape != (self.coupling_a.shape[0],):
            raise ValueError("coupling_b length must match coupling_a rows")

        self.upper = (
            np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float)
        )
        if self.upper.shape != (n,):
            raise ValueError(f"upper must have length {n}")
        if np.any(self.upper <= 0):
            raise ValueError("upper bounds must be positive (use np.inf for none)")

    @property
    def num_vars(self) -> int:
        """n, the number of decision variables."""
        return self.c.shape[0]

    @property
    def num_groups(self) -> int:
        """Number of equality groups."""
        return self.group_rhs.shape[0]

    @property
    def num_coupling(self) -> int:
        """K, the number of coupling inequality rows."""
        return self.coupling_a.shape[0]

    def group_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-group sums of a per-variable vector (G·values)."""
        return np.bincount(self.group_index, weights=values, minlength=self.num_groups)

    def objective(self, x: np.ndarray) -> float:
        """Evaluate :math:`c^T x`."""
        return float(self.c @ x)

    def residuals(self, x: np.ndarray) -> dict:
        """Max violation per constraint family for a candidate ``x``."""
        out = {
            "lower": float(np.max(np.maximum(-x, 0.0), initial=0.0)),
            "upper": float(np.max(np.maximum(x - self.upper, 0.0), initial=0.0)),
            "groups": float(
                np.max(np.abs(self.group_sums(x) - self.group_rhs), initial=0.0)
            ),
        }
        if self.num_coupling:
            out["coupling"] = float(
                np.max(
                    np.maximum(self.coupling_a @ x - self.coupling_b, 0.0), initial=0.0
                )
            )
        return out

    def is_feasible(self, x: np.ndarray, tol: float = 1e-6) -> bool:
        """Whether ``x`` satisfies every constraint within ``tol``."""
        return all(v <= tol for v in self.residuals(x).values())


def solve_structured(
    lp: GroupedBoundedLP, options: StructuredIPMOptions = StructuredIPMOptions()
) -> LPResult:
    """Solve a :class:`GroupedBoundedLP` with the structured Mehrotra IPM.

    The combined variable vector is (x, s) with s the coupling slacks; the
    equality system is ``[[G, 0], [R, I]] (x, s) = (b_g, r)``.  The normal
    equations are solved by eliminating the diagonal group block (Schur
    complement on the K×K coupling block).

    :param lp: the structured LP.
    :param options: solver tunables.
    """
    if current_context().reference:
        # Differential-testing / benchmarking hook: run the seed solver.
        return solve_structured_reference(lp, options)
    n = lp.num_vars
    k = lp.num_coupling
    m_g = lp.num_groups
    c = lp.c
    r_mat = lp.coupling_a
    bounded = np.isfinite(lp.upper)
    any_bounded = bool(np.any(bounded))
    all_bounded = bool(np.all(bounded))
    u = lp.upper

    # P2 instances built from real workloads bound every variable (the A1
    # deadline caps), in which case masking by ``bounded`` is the identity:
    # ``np.where(bounded, a, fill) == a`` and ``a[bounded] == a`` exactly.
    def where_bounded(values: np.ndarray, fill) -> np.ndarray:
        return values if all_bounded else np.where(bounded, values, fill)

    def of_bounded(values: np.ndarray) -> np.ndarray:
        return values if all_bounded else values[bounded]
    # Flattened bucket indices batching the K per-row group_sums of the
    # U-block into one bincount (bit-identical: bincount accumulates each
    # bucket in element order, unchanged by the offset flattening).
    u_block_offsets = (
        (np.arange(k)[:, None] * m_g + lp.group_index[None, :]).ravel()
        if k
        else None
    )
    # Diagonal index of the K×K Schur complement, shared by every solve.
    schur_diag = np.diag_indices(k) if k else None

    # ---- starting point -------------------------------------------------
    x = np.where(bounded, np.minimum(u * 0.5, 1.0), 1.0)
    x = np.maximum(x, 1e-3)
    s = np.ones(k)
    w = where_bounded(u - x, 1.0)  # only meaningful where bounded
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
            float(x @ z) + float(s @ z_s) + float(of_bounded(w) @ of_bounded(v))
        ) / num_comp

    # Loop-invariant lookups, bound once (the loop body runs thousands of
    # times on very small arrays, where attribute access is measurable).
    group_sums = lp.group_sums
    group_rhs = lp.group_rhs
    group_index = lp.group_index
    coupling_b = lp.coupling_b
    tolerance = options.tolerance
    step_fraction = options.step_fraction

    # One errstate for the whole solve: the scaling divisions may
    # overflow/divide harmlessly (they are clipped right after), and
    # toggling the FP-error state every iteration is measurable on
    # small instances.  Settings only silence warnings; no numerics
    # change.
    with np.errstate(over="ignore", divide="ignore"):
        for iteration in range(1, options.max_iterations + 1):
            # Residuals.
            r_groups = group_sums(x) - group_rhs
            r_coupling = (r_mat @ x + s - coupling_b) if k else np.zeros(0)
            r_upper = where_bounded(x + w - u, 0.0)
            r_dual_x = (
                (r_mat.T @ y_r if k else 0.0) + y_g[group_index] + z - v - c
            )
            r_dual_s = y_r + z_s if k else np.zeros(0)

            mu = complementarity()
            # sqrt(v @ v) is np.linalg.norm for real 1-D vectors, minus the
            # dispatch overhead (same BLAS dot, same rounding).
            primal_err = (
                math.sqrt(float(r_groups @ r_groups))
                + math.sqrt(float(r_coupling @ r_coupling))
                + math.sqrt(float(r_upper @ r_upper))
            ) / norm_b
            dual_err = (
                math.sqrt(float(r_dual_x @ r_dual_x))
                + math.sqrt(float(r_dual_s @ r_dual_s))
            ) / norm_c
            if max(primal_err, dual_err, mu) < tolerance:
                return LPResult(
                    status=LPStatus.OPTIMAL,
                    x=x.copy(),
                    objective=lp.objective(x),
                    iterations=iteration - 1,
                    backend=_BACKEND_NAME,
                )

            # Safe denominators, shared by the scaling matrix and both Newton
            # solves this iteration (the iterate is fixed until the update).
            x_safe = np.maximum(x, 1e-300)
            w_safe = np.maximum(w, 1e-300)
            s_safe = np.maximum(s, 1e-300) if k else np.zeros(0)

            # Scaling diagonals (clip to keep the Schur system finite).
            v_over_w = v / w_safe
            d_x = z / x_safe + where_bounded(v_over_w, 0.0)
            d_s = z_s / s_safe if k else np.zeros(0)
            theta_x = 1.0 / np.clip(d_x, 1e-12, 1e12)
            theta_s = 1.0 / np.clip(d_s, 1e-12, 1e12) if k else np.zeros(0)

            # Normal-equation blocks.  Everything here is fixed for the two
            # Newton solves of this iteration, so build it (including the Schur
            # complement and the negated residuals) exactly once.
            diag_g = np.maximum(group_sums(theta_x), 1e-300)
            if k:
                rt = r_mat * theta_x  # (K, n) scaled rows
                u_block = (
                    np.bincount(
                        u_block_offsets, weights=rt.ravel(), minlength=m_g * k
                    )
                    .reshape(k, m_g)
                    .T
                )
                # rt @ r_mat.T + diag(theta_s) minus the Schur correction,
                # accumulated in place (adding diag(theta_s) as a full matrix
                # only normalised off-diagonal -0.0 to +0.0, which compares
                # equal everywhere downstream).
                schur = rt @ r_mat.T
                schur[schur_diag] += theta_s
                schur -= u_block.T @ (u_block / diag_g[:, None])
                schur[schur_diag] += 1e-12 * (1.0 + schur.trace() / max(k, 1))
            else:
                u_block = np.zeros((m_g, 0))
            neg_r_groups = -r_groups
            neg_r_coupling = -r_coupling
            vw_r_upper = v_over_w * r_upper if any_bounded else None

            def solve_normal(rhs_g: np.ndarray, rhs_r: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
                """Solve [[D_g, U], [Uᵀ, S]] (dy_g, dy_r) = (rhs_g, rhs_r)."""
                if k == 0:
                    return rhs_g / diag_g, np.zeros(0)
                dg_inv_rhs = rhs_g / diag_g
                dy_r = np.linalg.solve(schur, rhs_r - u_block.T @ dg_inv_rhs)
                dy_g = (rhs_g - u_block @ dy_r) / diag_g
                return dy_g, dy_r

            def newton(rxz: np.ndarray, rwv: np.ndarray, rsz: np.ndarray):
                """One KKT solve for given complementarity residuals."""
                # Collapse to the normal equations in (dy_g, dy_r).
                g_x = r_dual_x - rxz / x_safe
                if any_bounded:
                    g_x = g_x + where_bounded(rwv / w_safe - vw_r_upper, 0.0)
                # dx = theta_x (A'dy + g_x) form:
                rhs_g = neg_r_groups - group_sums(theta_x * g_x)
                if k:
                    g_s = r_dual_s - rsz / s_safe
                    rhs_r = neg_r_coupling - rt @ g_x - theta_s * g_s
                else:
                    rhs_r = np.zeros(0)
                dy_g, dy_r = solve_normal(rhs_g, rhs_r)
                at_dy = dy_g[group_index] + (r_mat.T @ dy_r if k else 0.0)
                dx = theta_x * (at_dy + g_x)
                dz = -(rxz + z * dx) / x_safe
                dw = where_bounded(-r_upper - dx, 0.0)
                dv = where_bounded(-(rwv + v * dw) / w_safe, 0.0)
                if k:
                    ds = theta_s * (dy_r + g_s)
                    dz_s = -(rsz + z_s * ds) / s_safe
                else:
                    ds = np.zeros(0)
                    dz_s = np.zeros(0)
                return dx, ds, dw, dy_g, dy_r, dz, dz_s, dv

            def max_step(values: np.ndarray, deltas: np.ndarray) -> float:
                negative = deltas < 0
                blocked = values[negative]
                if not blocked.size:
                    return 1.0
                return float(min(1.0, (-blocked / deltas[negative]).min()))

            # The boundary step is a min over every blocking component, so the
            # three families can be ratio-tested in one fused call (the min over
            # the concatenation equals the min of the per-family minima).  The
            # iterate is frozen until the update, so its concatenation is shared
            # by the predictor and corrector ratio tests.
            primal_vals = np.concatenate((x, s, of_bounded(w)))
            dual_vals = np.concatenate((z, z_s, of_bounded(v)))

            def primal_step(dx: np.ndarray, ds: np.ndarray, dw: np.ndarray) -> float:
                return max_step(primal_vals, np.concatenate((dx, ds, of_bounded(dw))))

            def dual_step(dz: np.ndarray, dz_s: np.ndarray, dv: np.ndarray) -> float:
                return max_step(dual_vals, np.concatenate((dz, dz_s, of_bounded(dv))))

            # Predictor.
            rxz_aff = x * z
            rwv_aff = where_bounded(w * v, 0.0)
            rsz_aff = s * z_s if k else np.zeros(0)
            aff = newton(rxz_aff, rwv_aff, rsz_aff)
            dx_a, ds_a, dw_a, _, _, dz_a, dzs_a, dv_a = aff
            alpha_p = primal_step(dx_a, ds_a, dw_a)
            alpha_d = dual_step(dz_a, dzs_a, dv_a)
            mu_aff = (
                float((x + alpha_p * dx_a) @ (z + alpha_d * dz_a))
                + (float((s + alpha_p * ds_a) @ (z_s + alpha_d * dzs_a)) if k else 0.0)
                + float(
                    (of_bounded(w) + alpha_p * of_bounded(dw_a))
                    @ (of_bounded(v) + alpha_d * of_bounded(dv_a))
                )
            ) / num_comp
            sigma = (mu_aff / mu) ** 3 if mu > 0 else 0.0

            # Corrector.  The predictor residuals are exactly x*z, masked w*v and
            # s*z_s, so reuse them instead of recomputing the products.
            sigma_mu = sigma * mu
            rxz = rxz_aff + dx_a * dz_a - sigma_mu
            rwv = where_bounded(rwv_aff + dw_a * dv_a - sigma_mu, 0.0)
            rsz = (rsz_aff + ds_a * dzs_a - sigma_mu) if k else np.zeros(0)
            dx, ds, dw, dy_g, dy_r, dz, dz_s, dv = newton(rxz, rwv, rsz)

            alpha_p = step_fraction * primal_step(dx, ds, dw)
            alpha_d = step_fraction * dual_step(dz, dz_s, dv)
            # The step arrays are dead after the update, so scale them in place
            # and accumulate: same float ops as `x = x + alpha_p * dx` without
            # the temporaries.
            dx *= alpha_p
            x += dx
            ds *= alpha_p
            s += ds
            dy_g *= alpha_d
            y_g += dy_g
            dy_r *= alpha_d
            y_r += dy_r
            dz *= alpha_d
            z += dz
            dz_s *= alpha_d
            z_s += dz_s
            if all_bounded:
                dw *= alpha_p
                w += dw
                dv *= alpha_d
                v += dv
            else:
                w = np.where(bounded, w + alpha_p * dw, w)
                v = np.where(bounded, v + alpha_d * dv, v)

            # min() <= 0 matches any(v <= 0) here: iterates are never NaN before
            # this check (steps are finite multiples of finite directions).
            if x.min() <= 0 or z.min() <= 0 or (k and (s.min() <= 0 or z_s.min() <= 0)):
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


class _Bucket:
    """Same-shape blocks lying side by side in a :class:`_Pack`.

    ``a`` stacks their coupling matrices into one ``(B, K, n)`` array, so a
    per-block matvec, Schur product or K×K solve of the bucket is one
    stacked ``np.matmul`` / ``np.linalg.solve`` call, which runs the same
    BLAS/LAPACK kernel on each block's matrix as the sequential solver.
    The lower-case vector attributes are views of the pack's vectors
    reshaped to the bucket's blocks (fixed until the next compaction);
    ``dots`` lists the ``(left, right, out)`` triples of the convergence
    dots, ``aff_dots`` those of the predictor's complementarity; ``rt``,
    ``ut``/``ub`` and ``schur`` hold the current iteration's
    normal-equation blocks.
    """

    __slots__ = (
        "b", "n", "k", "m", "ss", "vs", "ks", "gs", "a", "at", "u_off",
        "u_len", "bounded", "x", "y_r", "mv", "at_y", "theta_x", "theta_s",
        "diag_g", "g_x", "rtgx", "rhs_r", "dg_inv", "dy_r", "ub_dyr",
        "at_dyr", "dots", "aff_dots", "rt", "ut", "ub", "schur",
    )


class _Pack:
    """The blocks still running in a batch solve, packed bucket by bucket.

    Owns the packed state — ``V = [[x, w], [z, v]]`` over the variables,
    ``Ks = [s, z_s]`` over the coupling rows, ``y_g``, ``y_r`` — and the
    per-iteration buffers the buckets' views point into.  Built once at
    the start, then again at every compaction from the live blocks of the
    previous pack and their gathered state (:meth:`live_state`).

    :param blocks: every block of the batch.
    :param keys: each block's bucket key ``(n, K, groups, bounded vars)``.
    :param ids: the packed blocks (indices into ``blocks``), bucket by
        bucket.
    :param norms: ``(3, len(blocks))`` per-block ``norm_b``, ``norm_c`` and
        complementarity-pair count.
    :param state: ``(V, Ks, y_g, y_r)`` of these blocks; ``None`` starts
        from the sequential solver's initial point.
    """

    def __init__(
        self,
        blocks: Sequence[GroupedBoundedLP],
        keys: Sequence[Tuple[int, int, int, int]],
        ids: List[int],
        norms: np.ndarray,
        state: Optional[Tuple[np.ndarray, ...]] = None,
    ) -> None:
        lps = [blocks[i] for i in ids]
        self.ids = ids
        self.n_sizes = np.array([keys[i][0] for i in ids], dtype=np.intp)
        self.k_sizes = np.array([keys[i][1] for i in ids], dtype=np.intp)
        self.g_sizes = np.array([keys[i][2] for i in ids], dtype=np.intp)
        self.v_off = np.concatenate(([0], np.cumsum(self.n_sizes)))
        k_off = np.concatenate(([0], np.cumsum(self.k_sizes)))
        g_off = np.concatenate(([0], np.cumsum(self.g_sizes)))
        n_tot = self.n_tot = int(self.v_off[-1])
        k_tot = int(k_off[-1])
        g_tot = self.g_tot = int(g_off[-1])
        self.norm_b, self.norm_c, self.num_comp = norms[:, ids]

        self.c = np.concatenate([lp.c for lp in lps])
        self.u = np.concatenate([lp.upper for lp in lps])
        self.bounded = np.isfinite(self.u)
        self.all_bounded = bool(self.bounded.all())
        self.unbounded = ~self.bounded
        self.group_rhs = np.concatenate([lp.group_rhs for lp in lps])
        self.coupling_b = np.concatenate([lp.coupling_b for lp in lps])
        self.gi_off = np.concatenate(
            [lp.group_index + g_off[j] for j, lp in enumerate(lps)]
        )
        # Segment starts of the blocks with entries, for per-block minima.
        self._var_seg = self._segments(self.v_off)
        self._row_seg = self._segments(k_off)

        if state is None:
            # Starting point: the sequential solver's expressions.
            x = np.where(self.bounded, np.minimum(self.u * 0.5, 1.0), 1.0)
            x = np.maximum(x, 1e-3)
            w = np.where(self.bounded, self.u - x, 1.0)
            w = np.maximum(w, 1e-3)
            v = np.where(self.bounded, 1.0, 0.0)
            state = (
                np.stack(((x, w), (np.ones(n_tot), v))),
                np.ones((2, k_tot)),
                np.zeros(g_tot),
                np.zeros(k_tot),
            )
        self.V, self.Ks, self.y_g, self.y_r = state

        # Per-iteration buffers.  Landing buffers of per-bucket results
        # stay zero on K = 0 buckets (the sequential ``0.0`` terms) and are
        # zeroed when a block freezes, since fully frozen buckets are
        # skipped.
        self.mv = np.zeros(k_tot)        # r_mat @ x
        self.rtgx = np.zeros(k_tot)      # rt @ g_x
        self.dy_r = np.zeros(k_tot)
        self.at_y = np.zeros(n_tot)      # r_mat.T @ y_r
        self.at_dyr = np.zeros(n_tot)    # r_mat.T @ dy_r
        self.ub_dyr = np.zeros(g_tot)    # u_block @ dy_r
        self.theta_x = np.zeros(n_tot)
        self.g_x = np.zeros(n_tot)
        self.theta_s = np.zeros(k_tot)
        self.rhs_r = np.zeros(k_tot)
        self.diag_g = np.zeros(g_tot)
        self.dg_inv = np.zeros(g_tot)
        self.resid_v = np.zeros((2, n_tot))   # r_upper, r_dual_x
        self.resid_k = np.zeros((2, k_tot))   # r_coupling, r_dual_s
        self.resid_g = np.zeros(g_tot)        # r_groups
        # The predictor's directions, as V / Ks; overwritten in place by
        # the predictor's trial point once the corrector has its products.
        self.dir_a = np.zeros((2, 2, n_tot))
        self.dir_k_a = np.zeros((2, k_tot))
        # Per-block dots: x·z, w·v, s·z_s, r_upper², r_dual_x², r_c²,
        # r_dual_s², r_groups² (convergence) and the predictor's x·z,
        # w·v, s·z_s.
        self.dots = np.zeros((8, len(ids)))
        self.aff = np.zeros((3, len(ids)))

        self.buckets: List[_Bucket] = []
        lo = 0
        while lo < len(ids):
            key = keys[ids[lo]]
            hi = lo + 1
            while hi < len(ids) and keys[ids[hi]] == key:
                hi += 1
            self.buckets.append(
                self._bucket(lps[lo:hi], key, lo, hi, k_off, g_off)
            )
            lo = hi

    def _bucket(self, members, key, lo, hi, k_off, g_off) -> _Bucket:
        bk = _Bucket()
        n, k, m, nb = key
        bk.n, bk.k, bk.m = n, k, m
        b = bk.b = hi - lo
        ss = bk.ss = slice(lo, hi)
        vs = bk.vs = slice(int(self.v_off[lo]), int(self.v_off[hi]))
        ks = bk.ks = slice(int(k_off[lo]), int(k_off[hi]))
        gs = bk.gs = slice(int(g_off[lo]), int(g_off[hi]))
        bk.bounded = None if nb == n else self.bounded[vs].reshape(b, n)

        def rows(vec: np.ndarray, part: slice) -> np.ndarray:
            """(F, b, 1, L) left / (F, b, L, 1) right operands of row dots."""
            return vec[:, part].reshape(vec.shape[0], b, 1, -1)

        def cols(vec: np.ndarray, part: slice) -> np.ndarray:
            return vec[:, part].reshape(vec.shape[0], b, -1, 1)

        def out(dots: np.ndarray, first: int, count: int) -> np.ndarray:
            return dots[first:first + count, ss].reshape(count, b, 1, 1)

        resid_g = self.resid_g[None]
        bk.dots = [
            (rows(self.V[0], vs), cols(self.V[1], vs), out(self.dots, 0, 2)),
            (rows(self.Ks[:1], ks), cols(self.Ks[1:], ks), out(self.dots, 2, 1)),
            (rows(self.resid_v, vs), cols(self.resid_v, vs), out(self.dots, 3, 2)),
            (rows(self.resid_k, ks), cols(self.resid_k, ks), out(self.dots, 5, 2)),
            (rows(resid_g, gs), cols(resid_g, gs), out(self.dots, 7, 1)),
        ]
        bk.aff_dots = [
            (rows(self.dir_a[0], vs), cols(self.dir_a[1], vs), out(self.aff, 0, 2)),
            (
                rows(self.dir_k_a[:1], ks), cols(self.dir_k_a[1:], ks),
                out(self.aff, 2, 1),
            ),
        ]
        if k:
            bk.a = (
                members[0].coupling_a[None]  # a view: no copy for one block
                if b == 1
                else np.stack([lp.coupling_a for lp in members])
            )
            bk.at = bk.a.transpose(0, 2, 1)
            bk.rt = np.empty_like(bk.a)
            # One bincount builds every U-block of the bucket: bin (block,
            # row, group) gathers its row's entries in element order, as
            # the sequential per-block bincount does.
            groups = np.stack([lp.group_index for lp in members])
            bk.u_off = (
                (np.arange(b)[:, None, None] * k + np.arange(k)[:, None]) * m
                + groups[:, None, :]
            ).ravel()
            bk.u_len = b * k * m
            bk.x = self.V[0, 0, vs].reshape(b, n, 1)
            bk.y_r = self.y_r[ks].reshape(b, k, 1)
            bk.mv = self.mv[ks].reshape(b, k, 1)
            bk.at_y = self.at_y[vs].reshape(b, n, 1)
            bk.theta_x = self.theta_x[vs].reshape(b, 1, n)
            bk.theta_s = self.theta_s[ks].reshape(b, k)
            bk.diag_g = self.diag_g[gs].reshape(b, m, 1)
            bk.g_x = self.g_x[vs].reshape(b, n, 1)
            bk.rtgx = self.rtgx[ks].reshape(b, k, 1)
            bk.rhs_r = self.rhs_r[ks].reshape(b, k, 1)
            bk.dg_inv = self.dg_inv[gs].reshape(b, m, 1)
            bk.dy_r = self.dy_r[ks].reshape(b, k, 1)
            bk.ub_dyr = self.ub_dyr[gs].reshape(b, m, 1)
            bk.at_dyr = self.at_dyr[vs].reshape(b, n, 1)
        return bk

    def live_state(self, live: np.ndarray) -> Tuple[np.ndarray, ...]:
        """The ``live`` blocks' state, gathered into fresh C-order arrays."""
        keep_v = np.repeat(live, self.n_sizes)
        keep_k = np.repeat(live, self.k_sizes)
        return (
            np.ascontiguousarray(self.V[:, :, keep_v]),
            np.ascontiguousarray(self.Ks[:, keep_k]),
            self.y_g[np.repeat(live, self.g_sizes)],
            self.y_r[keep_k],
        )

    def _segments(self, offsets: np.ndarray) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        nonempty = np.flatnonzero(offsets[1:] > offsets[:-1])
        if nonempty.size == len(self.ids):
            return offsets[:-1], None
        return offsets[:-1][nonempty], nonempty

    def _block_min(self, values: np.ndarray, segments) -> np.ndarray:
        starts, nonempty = segments
        if nonempty is None:
            return np.minimum.reduceat(values, starts, axis=1)
        # Empty blocks keep min(initial=inf); reduceat cannot express them.
        out = np.full((values.shape[0], len(self.ids)), np.inf)
        if nonempty.size:
            out[:, nonempty] = np.minimum.reduceat(values, starts, axis=1)
        return out

    def var_min(self, values: np.ndarray) -> np.ndarray:
        """Per-block minima ``(F, slots)`` of ``(F, n_tot)`` stacked vectors.

        ``minimum`` is exact and NaN-propagating, so each entry equals the
        block's own ``values.min()`` (``inf`` for an empty block).
        """
        return self._block_min(values, self._var_seg)

    def row_min(self, values: np.ndarray) -> np.ndarray:
        """Per-block minima ``(F, slots)`` over the coupling rows."""
        return self._block_min(values, self._row_seg)

    def bounded_dots(
        self, bk: _Bucket, left: np.ndarray, right: np.ndarray, out: np.ndarray
    ) -> None:
        """Redo a bucket's ``left · right`` on its bounded entries only.

        The sequential solver dots ``w[bounded] @ v[bounded]``; a block's
        ddot over the compressed entries is not the full-length one.
        """
        b, vs = bk.b, bk.vs
        np.matmul(
            left[vs].reshape(b, -1)[bk.bounded].reshape(b, 1, -1),
            right[vs].reshape(b, -1)[bk.bounded].reshape(b, -1, 1),
            out=out[bk.ss].reshape(b, 1, 1),
        )


def solve_structured_batch(
    blocks: Sequence[GroupedBoundedLP],
    options: StructuredIPMOptions = StructuredIPMOptions(),
) -> List[LPResult]:
    """Solve many independent :class:`GroupedBoundedLP` blocks in lockstep.

    The blocks are packed into one block-diagonal mega-problem and every
    Mehrotra iteration advances all of them at once, at a cost that follows
    the blocks still running rather than the batch size:

    - **Elementwise work** (residuals, scaling, directions, updates) runs
      once on the packed state vectors.
    - **Per-block work** runs per *shape bucket*: blocks with the same
      ``(num_vars, num_coupling, num_groups)`` (and the same number of
      bounded variables) sit side by side, their coupling matrices stacked
      into a ``(B, K, n)`` array.  Each coupling matvec, Schur product,
      K×K factorisation and complementarity/error dot is one stacked call
      per bucket; step-length and orthant minima are one segmented
      ``minimum.reduceat`` over all blocks.  Ragged batches are buckets of
      one; nothing is padded.
    - **Freezing and compaction**: a block that converges (or leaves the
      positive orthant) is *frozen* — its :class:`LPResult` is recorded
      with its own iteration count, its state is reset to benign constants
      and its step lengths are zero, so it stays a fixed point; a bucket
      whose blocks are all frozen is skipped.  Once the live blocks hold
      half of the packed variables or fewer, their slices are gathered
      into fresh contiguous state, so a straggler costs only its own
      block's work.

    Stacked ``matmul``/``solve`` run the same BLAS/LAPACK call on each
    block's matrix as the sequential solver's ``@``/``solve``; elementwise
    work is per element identical, and every reduction of a block sees the
    same values in the same order.  Hence every block follows the
    **bit-identical iterate trajectory** of :func:`solve_structured` (the
    only tolerated deviation is the sign of floating-point zeros in masked
    fill positions, which can never change a magnitude or comparison).

    In reference mode this degrades to a per-block sequential loop so the
    differential baselines never see the batched code path.

    :param blocks: independent structured LPs (any mix of sizes; ragged
        batches and a batch of one are fine).
    :param options: shared solver tunables.
    :returns: one :class:`LPResult` per block, in input order.
    """
    if not blocks:
        return []
    if current_context().reference:
        return [solve_structured(lp, options) for lp in blocks]

    keys: List[Tuple[int, int, int, int]] = []
    by_key: Dict[Tuple[int, int, int, int], List[int]] = {}
    for index, lp in enumerate(blocks):
        key = (
            lp.num_vars,
            lp.num_coupling,
            lp.num_groups,
            int(np.isfinite(lp.upper).sum()),
        )
        keys.append(key)
        by_key.setdefault(key, []).append(index)
    # sqrt(v @ v) is np.linalg.norm for real 1-D vectors, minus the
    # dispatch overhead (same BLAS dot, same rounding).
    norms = np.array(
        [
            [
                1.0
                + math.sqrt(float(lp.group_rhs @ lp.group_rhs))
                + math.sqrt(float(lp.coupling_b @ lp.coupling_b))
                for lp in blocks
            ],
            [1.0 + math.sqrt(float(lp.c @ lp.c)) for lp in blocks],
            [n + k + nb for n, k, _, nb in keys],
        ]
    )
    p = _Pack(blocks, keys, [i for ids in by_key.values() for i in ids], norms)
    results: List[Optional[LPResult]] = [None] * len(blocks)
    alive = np.ones(len(p.ids), dtype=bool)
    buckets = p.buckets
    refresh = False  # set by freeze(): revisit compaction and live buckets

    def freeze(mask: np.ndarray) -> None:
        """Reset the masked blocks to a benign fixed point of the update."""
        nonlocal refresh
        fv = np.repeat(mask, p.n_sizes)
        fk = np.repeat(mask, p.k_sizes)
        fg = np.repeat(mask, p.g_sizes)
        p.V[:, :, fv] = 1.0
        p.Ks[:, fk] = 1.0
        p.y_r[fk] = 0.0
        p.y_g[fg] = 0.0
        p.mv[fk] = 0.0
        p.rtgx[fk] = 0.0
        p.dy_r[fk] = 0.0
        p.at_y[fv] = 0.0
        p.at_dyr[fv] = 0.0
        p.ub_dyr[fg] = 0.0
        alive[mask] = False
        refresh = True

    tolerance = options.tolerance
    step_fraction = options.step_fraction
    inf = np.inf

    # invalid="ignore" on top of the sequential solver's errstate: the
    # fused ratio tests evaluate both np.where branches, and the masked-out
    # branch may hit 0/0 before being discarded.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for iteration in range(1, options.max_iterations + 1):
            if refresh:
                refresh = False
                if 2 * int(p.n_sizes[alive].sum()) <= p.n_tot:
                    # Compaction: the live blocks move to fresh state.  The
                    # old pack is dropped first, so its stacked matrices
                    # are freed before the live ones are restacked.
                    ids = [i for i, live in zip(p.ids, alive) if live]
                    state = p.live_state(alive)
                    p = buckets = None
                    p = _Pack(blocks, keys, ids, norms, state)
                    alive = np.ones(len(ids), dtype=bool)
                    buckets = p.buckets
                else:
                    buckets = [bk for bk in p.buckets if alive[bk.ss].any()]
            V, Ks, y_g, y_r = p.V, p.Ks, p.y_g, p.y_r
            (x, w), (z, v) = V
            s, z_s = Ks
            partial = not p.all_bounded

            # ---- residuals: stacked matvecs + global elementwise --------
            for bk in buckets:
                if bk.k:
                    np.matmul(bk.a, bk.x, out=bk.mv)
                    np.matmul(bk.at, bk.y_r, out=bk.at_y)
            r_groups = p.resid_g
            np.subtract(
                np.bincount(p.gi_off, weights=x, minlength=p.g_tot),
                p.group_rhs,
                out=r_groups,
            )
            r_upper, r_dual_x = p.resid_v
            np.add(x, w, out=r_upper)
            r_upper -= p.u
            if partial:
                r_upper[p.unbounded] = 0.0
            np.add(p.at_y, y_g[p.gi_off], out=r_dual_x)
            r_dual_x += z
            r_dual_x -= v
            r_dual_x -= p.c
            r_coupling, r_dual_s = p.resid_k
            np.add(p.mv, s, out=r_coupling)
            r_coupling -= p.coupling_b
            np.add(y_r, z_s, out=r_dual_s)

            # ---- per-block convergence (own mu / residual norms) --------
            dots = p.dots
            for bk in buckets:
                for left, right, out in bk.dots:
                    np.matmul(left, right, out=out)
                if bk.bounded is not None:
                    p.bounded_dots(bk, w, v, dots[1])
            mu = (dots[0] + dots[2] + dots[1]) / p.num_comp
            roots = np.sqrt(dots[3:])
            primal_err = (roots[4] + roots[2] + roots[0]) / p.norm_b
            dual_err = (roots[1] + roots[3]) / p.norm_c
            # max(primal_err, dual_err, mu) as Python's max evaluates it.
            worst = np.where(dual_err > primal_err, dual_err, primal_err)
            worst = np.where(mu > worst, mu, worst)
            converged = alive & (worst < tolerance)
            if converged.any():
                for slot in np.flatnonzero(converged).tolist():
                    index = p.ids[slot]
                    solution = x[p.v_off[slot]:p.v_off[slot + 1]].copy()
                    results[index] = LPResult(
                        status=LPStatus.OPTIMAL,
                        x=solution,
                        objective=blocks[index].objective(solution),
                        iterations=iteration - 1,
                        backend=_BACKEND_NAME,
                    )
                freeze(converged)
                if not alive.any():
                    break
                buckets = [bk for bk in buckets if alive[bk.ss].any()]

            # ---- scaling (global) + Schur complements (stacked) ---------
            x_safe, w_safe = np.maximum(V[0], 1e-300)
            s_safe = np.maximum(s, 1e-300)
            v_over_w = v / w_safe
            d_x = z / x_safe
            d_x += np.where(p.bounded, v_over_w, 0.0) if partial else v_over_w
            theta_x = np.divide(1.0, np.clip(d_x, 1e-12, 1e12), out=p.theta_x)
            theta_s = np.divide(
                1.0, np.clip(z_s / s_safe, 1e-12, 1e12), out=p.theta_s
            )
            diag_g = np.maximum(
                np.bincount(p.gi_off, weights=theta_x, minlength=p.g_tot),
                1e-300,
                out=p.diag_g,
            )
            neg_r_groups = -r_groups
            neg_r_coupling = -r_coupling
            neg_r_upper = -r_upper
            vw_r_upper = v_over_w * r_upper

            for bk in buckets:
                if not bk.k:
                    continue
                b, k = bk.b, bk.k
                rt = np.multiply(bk.a, bk.theta_x, out=bk.rt)
                ut = np.bincount(
                    bk.u_off, weights=rt.ravel(), minlength=bk.u_len
                ).reshape(b, k, bk.m)
                ub = ut.transpose(0, 2, 1)
                schur = rt @ bk.at
                diag = schur.reshape(b, k * k)[:, :: k + 1]  # a view
                diag += bk.theta_s
                schur -= ut @ (ub / bk.diag_g)
                # diag.sum is each block's schur.trace(): the same strided
                # pairwise sum.
                diag += (1e-12 * (1.0 + diag.sum(axis=1) / k))[:, None]
                bk.ut, bk.ub, bk.schur = ut, ub, schur

            def newton(rxz, rwv, rsz, dV, dK):
                """One lockstep KKT solve for given complementarity residuals.

                Writes the stacked directions ``dV = [[dx, dw], [dz, dv]]``
                and ``dK = [ds, dz_s]``, leaves ``dy_r`` in ``p.dy_r`` and
                returns ``dy_g``.
                """
                g_x = np.divide(rxz, x_safe, out=p.g_x)
                np.subtract(r_dual_x, g_x, out=g_x)
                correction = rwv / w_safe
                correction -= vw_r_upper
                if partial:
                    correction[p.unbounded] = 0.0
                g_x += correction
                rhs_g = neg_r_groups - np.bincount(
                    p.gi_off, weights=theta_x * g_x, minlength=p.g_tot
                )
                g_s = r_dual_s - rsz / s_safe
                for bk in buckets:
                    if bk.k:
                        np.matmul(bk.rt, bk.g_x, out=bk.rtgx)
                rhs_r = np.subtract(neg_r_coupling, p.rtgx, out=p.rhs_r)
                rhs_r -= theta_s * g_s
                np.divide(rhs_g, diag_g, out=p.dg_inv)
                for bk in buckets:
                    if bk.k:
                        dy = np.linalg.solve(bk.schur, bk.rhs_r - bk.ut @ bk.dg_inv)
                        bk.dy_r[...] = dy
                        np.matmul(bk.ub, dy, out=bk.ub_dyr)
                        np.matmul(bk.at, dy, out=bk.at_dyr)
                dy_g = (rhs_g - p.ub_dyr) / diag_g
                at_dy = dy_g[p.gi_off] + p.at_dyr
                (dx, dw), (dz, dv) = dV
                at_dy += g_x
                np.multiply(theta_x, at_dy, out=dx)
                # dz = -(rxz + z * dx) / x_safe, and so on: every operand
                # pair as the sequential solver has it (a + b == b + a).
                np.multiply(z, dx, out=dz)
                dz += rxz
                np.negative(dz, out=dz)
                dz /= x_safe
                np.subtract(neg_r_upper, dx, out=dw)
                if partial:
                    dw[p.unbounded] = 0.0
                np.multiply(v, dw, out=dv)
                dv += rwv
                np.negative(dv, out=dv)
                dv /= w_safe
                if partial:
                    dv[p.unbounded] = 0.0
                ds, dz_s = dK
                np.add(p.dy_r, g_s, out=ds)
                ds *= theta_s
                np.multiply(z_s, ds, out=dz_s)
                dz_s += rsz
                np.negative(dz_s, out=dz_s)
                dz_s /= s_safe
                return dy_g

            def block_steps(dV, dK):
                """Per-block (primal, dual) boundary steps, shape (2, slots).

                A block's step is min(1, the min over its x, s and bounded
                w ratios): the sequential min over the block's concatenated
                families, NaN-propagating alike.
                """
                blocking = dV < 0
                if partial:
                    blocking[:, 1] &= p.bounded
                ratios = np.where(blocking, -V / dV, inf)
                ratios_k = np.where(dK < 0, -Ks / dK, inf)
                steps = np.minimum(
                    p.var_min(np.minimum(ratios[:, 0], ratios[:, 1])),
                    p.row_min(ratios_k),
                )
                # min(1.0, steps) as Python evaluates it: a NaN or an empty
                # family (inf) gives a full step.
                return np.where(steps < 1.0, steps, 1.0)

            # ---- predictor ----------------------------------------------
            comp_aff = V[0] * V[1]  # x * z, w * v
            if partial:
                comp_aff[1, p.unbounded] = 0.0
            rsz_aff = s * z_s
            dV_a, dK_a = p.dir_a, p.dir_k_a
            newton(comp_aff[0], comp_aff[1], rsz_aff, dV_a, dK_a)
            steps = block_steps(dV_a, dK_a)
            comp = dV_a[0] * dV_a[1]  # dx * dz, dw * dv, for the corrector
            rsz = dK_a[0] * dK_a[1]
            # The trial point V + step * dV (as x + alpha * dx), in place.
            dV_a *= np.repeat(steps, p.n_sizes, axis=1)[:, None]
            dV_a += V
            dK_a *= np.repeat(steps, p.k_sizes, axis=1)
            dK_a += Ks
            aff = p.aff
            for bk in buckets:
                for left, right, out in bk.aff_dots:
                    np.matmul(left, right, out=out)
                if bk.bounded is not None:
                    p.bounded_dots(bk, dV_a[0, 1], dV_a[1, 1], aff[1])
            mu_aff = (aff[0] + aff[2] + aff[1]) / p.num_comp
            # sigma * mu in Python floats, as the sequential solver computes
            # it (``** 3`` is the C library pow).
            sm = np.array([
                ((a / m) ** 3 if m > 0 else 0.0) * m if live else 0.0
                for a, m, live in zip(mu_aff.tolist(), mu.tolist(), alive.tolist())
            ])

            # ---- corrector ----------------------------------------------
            comp += comp_aff
            comp -= np.repeat(sm, p.n_sizes)
            if partial:
                comp[1, p.unbounded] = 0.0
            rsz += rsz_aff
            rsz -= np.repeat(sm, p.k_sizes)
            dV, dK = np.empty_like(V), np.empty_like(Ks)
            dy_g = newton(comp[0], comp[1], rsz, dV, dK)

            # Frozen blocks step by zero: x + 0*dx is bitwise x.  The
            # masked (unbounded) w, v directions are zero, so w + ap*dw is
            # the sequential np.where(bounded, w + ap*dw, w).
            steps = np.where(alive, step_fraction * block_steps(dV, dK), 0.0)
            step_k = np.repeat(steps, p.k_sizes, axis=1)
            dV *= np.repeat(steps, p.n_sizes, axis=1)[:, None]
            V += dV
            dK *= step_k
            Ks += dK
            dy_g *= np.repeat(steps[1], p.g_sizes)
            y_g += dy_g
            dy_r = p.dy_r
            dy_r *= step_k[1]
            y_r += dy_r

            # ---- per-block orthant check --------------------------------
            # Each family's own min, as the sequential ``x.min() <= 0 or
            # ...`` (a NaN min compares False family by family).
            escaped = alive & (
                (p.var_min(V[:, 0]) <= 0).any(axis=0)
                | (p.row_min(Ks) <= 0).any(axis=0)
            )
            if escaped.any():
                for slot in np.flatnonzero(escaped).tolist():
                    results[p.ids[slot]] = LPResult(
                        status=LPStatus.NUMERICAL_ERROR,
                        x=None,
                        objective=float("nan"),
                        iterations=iteration,
                        backend=_BACKEND_NAME,
                        message="iterate left the positive orthant",
                    )
                freeze(escaped)
                if not alive.any():
                    break

    for slot in np.flatnonzero(alive).tolist():
        results[p.ids[slot]] = LPResult(
            status=LPStatus.ITERATION_LIMIT,
            x=None,
            objective=float("nan"),
            iterations=options.max_iterations,
            backend=_BACKEND_NAME,
            message="no convergence within the iteration cap",
        )
    return results  # type: ignore[return-value]
