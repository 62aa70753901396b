"""The evaluation table of a run (`RunResult`, which `solver.run` writes and
`solver` re-exports) and what is derived from it: the per-step columns, the
CSV rows and the verdict."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from .functionals import REPORT_COLUMNS, State
from .grid import _cumulative_trapezoid
from .shift import phi_regime, velocity

if TYPE_CHECKING:
    from .solver import SolverConfig

__all__ = ["RunResult", "EVALUATION_COLUMNS"]

# Columns of RunResult.evaluations: row j is the evaluation at time level j.
EVALUATION_COLUMNS = ("t", "X", *REPORT_COLUMNS)


def _reported_steps(n_steps: int, stride: int) -> list[int]:
    """Steps k whose end is reported: every stride-th step and the last one."""
    return [k for k in range(n_steps) if (k + 1) % stride == 0 or k == n_steps - 1]


@dataclass
class RunResult:
    """The evaluation table and final state of one run.

    `evaluations` has one row per time level j = 0..n_steps: t_j, X_j and
    the report of (U_j, X_j) in REPORT_COLUMNS order.  It is the run's one
    store of monitored numbers; `monitor`, the CSV table and the verdict are
    derived from it.  `timings` says where the run loop's time went.
    """

    config: SolverConfig
    dt: float
    evaluations: np.ndarray  # (n_steps + 1, len(EVALUATION_COLUMNS))
    initial_state: State
    final_state: State
    states: Optional[list] = None  # (t, State) at every keep_states-th reported step
    # perf_counter seconds of the run loop's phases: TIMINGS' keys
    timings: dict = field(default_factory=dict)

    def column(self, name: str) -> np.ndarray:
        """One column of the evaluation table, over every time level."""
        return self.evaluations[:, EVALUATION_COLUMNS.index(name)]

    @property
    def times(self) -> np.ndarray:
        return self.column("t")[1:]

    @property
    def e0(self) -> float:
        return float(self.column("eta_weighted")[0])

    @property
    def eta0_unweighted(self) -> float:
        return float(self.column("eta_unweighted")[0])

    @functools.cached_property
    def monitor(self) -> dict:
        """Per-step columns (regime is a list of str), built on first use.

        Entry k describes step k, from t_k to t_{k+1}: t, X, lab_shift and
        the entropies are taken at level k + 1; X_dot, regime, xdot_bound
        and the functionals Y, I_bad, I_good, B_delta, G_delta, D, R_main
        at level k, where the step starts; violation and balance_residual
        compare the two.
        """
        params = self.config.params
        col = self.column
        t, x, e = col("t")[1:], col("X"), col("eta_weighted")
        functionals = ("Y", "I_bad", "I_good", "B_delta", "G_delta", "D", "R_main")
        at_start = {name: col(name)[:-1] for name in functionals}
        y, ibad = at_start["Y"], at_start["I_bad"]
        de = np.diff(e)
        xdot_eff = np.diff(x) / self.dt
        xdot = [velocity(v, b, params.eps) for v, b in zip(y.tolist(), ibad.tolist())]
        return {
            "t": t,
            "X": x[1:],
            "X_dot": np.array(xdot),
            "regime": [phi_regime(v, params.eps) for v in y.tolist()],
            "lab_shift": params.sigma * t - x[1:],
            "eta_weighted": e[1:],
            **at_start,
            "eta_unweighted": col("eta_unweighted")[1:],
            "violation": np.maximum(de, 0.0),
            "balance_residual": de / self.dt - (xdot_eff * y + ibad - at_start["I_good"]),
            "xdot_bound": (2.0 * np.abs(ibad) + 1.0) / params.eps**2,
        }

    def csv_table(self) -> list[tuple[str, object]]:
        """The run table as (name, column) pairs, one entry per reported step
        k: the step's shift velocity and checks beside the evaluation at its
        end.  regime is a list of str, the rest arrays."""
        m = self.monitor
        steps = _reported_steps(len(self.times), self.config.report_stride)
        at = np.array(steps, dtype=np.intp)
        ends = dict(zip(EVALUATION_COLUMNS, self.evaluations[at + 1].T))
        return [
            ("t", ends["t"]),
            ("X", ends["X"]),
            ("X_dot", m["X_dot"][at]),
            ("regime", [m["regime"][k] for k in steps]),
            ("lab_shift", m["lab_shift"][at]),
            *((name, ends[name]) for name in REPORT_COLUMNS),
            ("violation", m["violation"][at]),
            ("balance_residual", m["balance_residual"][at]),
        ]

    def verdict(self) -> dict:
        m = self.monitor
        tol = self.config.violation_tol
        # int_0^{t_j} D, with D at each time level
        cum_d = _cumulative_trapezoid(self.column("D"), np.diff(self.column("t")))
        # signed: <= 0 is the margin by which the inequality held
        dissipation_excess = float(np.max(m["eta_weighted"] + self.config.delta0 * cum_d - self.e0))
        violations = m["violation"]
        eta_unw = m["eta_unweighted"]
        # R_main is monitored in the linear band of the shift gain
        monitored = np.array(m["regime"]) == "linear"
        r_monitored = m["R_main"][monitored]
        xdot_ok = np.all(np.abs(m["X_dot"]) <= m["xdot_bound"] * (1.0 + 1e-12))
        if self.eta0_unweighted > 0.0:
            max_eta_ratio = float(np.max(eta_unw, initial=0.0) / self.eta0_unweighted)
        else:
            max_eta_ratio = 0.0
        return {
            "contraction_held": bool(np.all(violations <= tol)),
            "max_violation": float(np.max(violations, initial=0.0)),
            "dissipation_inequality_held": bool(dissipation_excess <= tol),
            "dissipation_excess": dissipation_excess,
            "factor4_held": bool(np.all(eta_unw <= 4.0 * self.eta0_unweighted + tol)),
            "max_eta_ratio": max_eta_ratio,
            "Rmain_sign_profile": {
                "steps_monitored": int(np.sum(monitored)),
                "steps_positive": int(np.sum(r_monitored > 0.0)),
                "max_R_main": float(np.max(r_monitored)) if r_monitored.size else None,
            },
            "shift_bound_held": bool(xdot_ok),
            "final_X": float(m["X"][-1]),
            "violation_tol": tol,
            "steps": int(len(self.times)),
            "dt": self.dt,
        }
