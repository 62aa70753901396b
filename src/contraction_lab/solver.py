"""Moving-frame time integration of the hyperbolic-parabolic system.

The frame travels with the shock, so the reference wave is stationary and
only the shift X translates analytic objects.  One step is a two-stage
explicit update of the first-order terms (second-order upwind-biased
advection, central coupling) followed by an implicit backward-Euler
diffusion solve; boundary nodes stay pinned to the analytic wave.  The
frame advects at -sigma < 0 at every node, so the upwind-biased stencil is
the three-point forward one throughout (`grid._ddx_forward_biased`).

The implicit solve is the one diffusion path, so dt follows from the CFL
limit of the first-order terms alone and does not shrink as nu grows.
`run()` builds one `_Stepper` per run, once dt is known, and the stepper
builds the banded matrix of the solve once.

The step works in delta form around the sampled wave: the discrete
residual of the wave is subtracted from the right-hand side, and the
diffusion solve acts on the difference from the wave.  This makes the
sampled wave a bit-exact fixed point of the scheme: a zero perturbation
stays identically zero, shift included.

Monitoring evaluates each (state, shift) pair once, and stores it once.  The
evaluation at time level j, (U_j, X_j), is row j of one preallocated table,
`RunResult.evaluations`; it also gives the first shift substep of step j.
Only the later shift substeps, at new shifts, evaluate again.  The per-step
columns, the CSV rows and the verdict are derived from the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import solve_banded

from .functionals import (
    REPORT_COLUMNS,
    ReferenceArrays,
    State,
    evaluate_report,
    reference_arrays,
)
from .grid import (
    Grid,
    GridField,
    _cumulative_trapezoid,
    _ddx_central,
    _ddx_forward_biased,
)
from .shift import advance, phi_eps, phi_regime
from .wave import WaveParams, characteristic_speeds

__all__ = [
    "StabilityError",
    "PerturbationSpec",
    "SolverConfig",
    "RunResult",
    "EVALUATION_COLUMNS",
    "initial_state",
    "run",
    "reconstruct_concentration",
]

# The perturbation must be below this floor outside the inner 80% of the domain.
INNER_FRACTION = 0.8
DECAY_FLOOR = 1e-10


class StabilityError(RuntimeError):
    """Blow-up, NaN, or loss of positivity during time integration."""

    def __init__(self, message: str, t: float | None = None, node: int | None = None):
        super().__init__(message)
        self.t = t
        self.node = node


@dataclass(frozen=True)
class PerturbationSpec:
    """Initial perturbation added on top of the sampled wave."""

    kind: str = "gaussian_bump"
    amplitude_n: float = 0.0
    amplitude_q: float = 0.0
    width: float = 1.0
    center: float = 0.0
    seed: int = 0
    path: Optional[str] = None  # for kind == "custom_file"

    def __post_init__(self):
        if self.kind not in ("gaussian_bump", "random_fourier", "shifted_wave", "custom_file"):
            raise ValueError(f"unknown perturbation kind {self.kind!r}")
        if self.width <= 0.0:
            raise ValueError("width must be positive")
        if self.kind == "custom_file" and self.path is None:
            raise ValueError("perturbation kind 'custom_file' needs perturbation.path")


@dataclass(frozen=True)
class SolverConfig:
    """Everything one run needs; dt follows from the CFL number unless pinned."""

    params: WaveParams
    grid: Grid
    t_end: float
    perturbation: PerturbationSpec
    cfl: float = 0.4
    dt: Optional[float] = None
    report_stride: int = 1
    delta0: float = 0.01
    delta1: float = 0.25
    keep_states: bool = False
    violation_tol: float = 1e-7

    def __post_init__(self):
        if not (0.0 < self.cfl <= 1.0):
            raise ValueError("cfl must lie in (0, 1]")
        if self.t_end <= 0.0:
            raise ValueError("t_end must be positive")
        if self.report_stride < 1:
            raise ValueError("report_stride must be >= 1")
        if self.dt is not None and self.dt <= 0.0:
            raise ValueError("dt must be positive when given")
        if not (self.grid.xi_min < 0.0 < self.grid.xi_max):
            raise ValueError("grid must bracket the wave center xi = 0")


def _perturbation_arrays(spec: PerturbationSpec, grid: Grid, params: WaveParams):
    xi = grid.nodes()
    if spec.kind == "gaussian_bump":
        bump = np.exp(-((xi - spec.center) ** 2) / (2.0 * spec.width**2))
        return spec.amplitude_n * bump, spec.amplitude_q * bump

    if spec.kind == "random_fourier":
        rng = np.random.default_rng(spec.seed)
        envelope = np.exp(-((xi - spec.center) ** 2) / (2.0 * spec.width**2))
        dn = np.zeros_like(xi)
        dq = np.zeros_like(xi)
        for k in range(1, 6):
            wavelen = spec.width / k
            dn += rng.normal() / k * np.sin(2.0 * np.pi * xi / wavelen + rng.uniform(0, 2 * np.pi))
            dq += rng.normal() / k * np.sin(2.0 * np.pi * xi / wavelen + rng.uniform(0, 2 * np.pi))

        def _norm(v):
            m = np.max(np.abs(v))
            return v / m if m > 0 else v

        return spec.amplitude_n * _norm(dn) * envelope, spec.amplitude_q * _norm(dq) * envelope

    if spec.kind == "shifted_wave":
        from .wave import profile_n, profile_q

        dn = np.asarray(profile_n(params, xi - spec.center)) - np.asarray(profile_n(params, xi))
        dq = np.asarray(profile_q(params, xi - spec.center)) - np.asarray(profile_q(params, xi))
        return dn, dq

    # custom_file: CSV columns xi, dn, dq interpolated onto the grid
    try:
        data = np.genfromtxt(spec.path, delimiter=",", names=True)
    except OSError as exc:
        raise ValueError(f"cannot read perturbation file {spec.path!r}: {exc}") from exc
    dn = np.interp(xi, data["xi"], data["dn"], left=0.0, right=0.0)
    dq = np.interp(xi, data["xi"], data["dq"], left=0.0, right=0.0)
    return dn, dq


def initial_state(params: WaveParams, grid: Grid, spec: PerturbationSpec) -> State:
    """Sampled wave plus perturbation, validated for positivity and decay."""
    return _initial_state(params, grid, spec, reference_arrays(params, grid))


def _initial_state(
    params: WaveParams, grid: Grid, spec: PerturbationSpec, refs: ReferenceArrays
) -> State:
    dn, dq = _perturbation_arrays(spec, grid, params)
    n0 = refs.ntil + dn
    q0 = refs.qtil + dq
    if np.any(n0 <= 0.0):
        node = int(np.argmin(n0))
        raise ValueError(f"perturbation drives density non-positive at node {node}")
    if spec.kind != "shifted_wave":
        xi = grid.nodes()
        half = 0.5 * (grid.xi_max - grid.xi_min)
        mid = 0.5 * (grid.xi_max + grid.xi_min)
        outer = np.abs(xi - mid) > INNER_FRACTION * half
        worst = max(np.max(np.abs(dn[outer]), initial=0.0), np.max(np.abs(dq[outer]), initial=0.0))
        if worst > DECAY_FLOOR:
            raise ValueError(
                f"perturbation does not decay below {DECAY_FLOOR:g} outside the "
                f"inner {INNER_FRACTION:.0%} of the domain (max {worst:.3e})"
            )
    return State(n=GridField(grid, n0), q=GridField(grid, q0))


class _Stepper:
    """The step of one run: its grid, references and dt are fixed when it is
    built, and so is the banded matrix of the implicit diffusion solve."""

    def __init__(self, params: WaveParams, grid: Grid, refs: ReferenceArrays, dt: float):
        self.sigma = params.sigma
        self.dx = grid.dx
        self.refs = refs
        self.dt = dt
        # hyperbolic residuals of the sampled wave
        self.residual_n, self.residual_q = self._hyperbolic(refs.ntil, refs.qtil)
        r = params.nu * dt / (self.dx * self.dx)
        ab = np.zeros((3, grid.num_nodes))
        ab[0, 2:] = -r
        ab[1, :] = 1.0 + 2.0 * r
        ab[2, :-2] = -r
        # Dirichlet rows at both ends
        ab[1, 0] = ab[1, -1] = 1.0
        ab[0, 1] = 0.0
        ab[2, -2] = 0.0
        self.ab = ab

    def _hyperbolic(self, n: np.ndarray, q: np.ndarray):
        """First-order terms: sigma-advection upwinded (forward), coupling central."""
        rn = self.sigma * _ddx_forward_biased(n, self.dx) + _ddx_central(n * q, self.dx)
        rq = self.sigma * _ddx_forward_biased(q, self.dx) + _ddx_central(n, self.dx)
        return rn, rq

    def _rhs(self, n: np.ndarray, q: np.ndarray):
        rn, rq = self._hyperbolic(n, q)
        rn -= self.residual_n
        rq -= self.residual_q
        rn[0] = rn[-1] = 0.0
        rq[0] = rq[-1] = 0.0
        return rn, rq

    def step(self, n: np.ndarray, q: np.ndarray):
        dt = self.dt
        # two-stage (Heun) update of the first-order terms
        rn1, rq1 = self._rhs(n, q)
        rn2, rq2 = self._rhs(n + dt * rn1, q + dt * rq1)
        n_star = n + 0.5 * dt * (rn1 + rn2)
        q_new = q + 0.5 * dt * (rq1 + rq2)

        # backward-Euler diffusion in delta form around the sampled wave
        rhs = n_star - self.refs.ntil
        rhs[0] = rhs[-1] = 0.0
        # unchecked: a non-finite value reaches _check_state, which reports
        # it as a stability error with its time and node
        n_new = self.refs.ntil + solve_banded((1, 1), self.ab, rhs, check_finite=False)
        n_new[0] = self.refs.ntil[0]
        n_new[-1] = self.refs.ntil[-1]
        q_new[0] = self.refs.qtil[0]
        q_new[-1] = self.refs.qtil[-1]
        return n_new, q_new


def _stable_dt(params: WaveParams, grid: Grid, state: State, cfl: float) -> float:
    """The CFL step of the first-order terms at `state`."""
    lo, hi = characteristic_speeds(state.n.values, state.q.values, params.sigma)
    max_speed = max(np.max(np.abs(lo)), np.max(np.abs(hi)), 1e-12)
    return cfl * grid.dx / max_speed


def _check_state(n: np.ndarray, q: np.ndarray, t: float | None = None):
    if not (np.all(np.isfinite(n)) and np.all(np.isfinite(q))):
        bad = int(np.argmax(~np.isfinite(n) | ~np.isfinite(q)))
        raise StabilityError("non-finite value in state", t=t, node=bad)
    if np.any(n <= 0.0):
        bad = int(np.argmin(n))
        raise StabilityError(f"density lost positivity (min {n[bad]:.3e})", t=t, node=bad)


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
    store of monitored numbers; `monitor`, the CSV rows and the verdict are
    derived from it.
    """

    config: SolverConfig
    dt: float
    evaluations: np.ndarray  # (n_steps + 1, len(EVALUATION_COLUMNS))
    initial_state: State
    final_state: State
    states: Optional[list] = None  # (t, State) at each reported step

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

    @property
    def monitor(self) -> dict:
        """Per-step columns (regime is a list of str).

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
        gain = 2.0 * np.abs(ibad) + 1.0
        de = np.diff(e)
        xdot_eff = np.diff(x) / self.dt
        return {
            "t": t,
            "X": x[1:],
            "X_dot": np.array([phi_eps(v, params.eps) for v in y.tolist()]) * gain,
            "regime": [phi_regime(v, params.eps) for v in y.tolist()],
            "lab_shift": params.sigma * t - x[1:],
            "eta_weighted": e[1:],
            **at_start,
            "eta_unweighted": col("eta_unweighted")[1:],
            "violation": np.maximum(de, 0.0),
            "balance_residual": de / self.dt - (xdot_eff * y + ibad - at_start["I_good"]),
            "xdot_bound": gain / params.eps**2,
        }

    def csv_header(self) -> list[str]:
        return [
            "t",
            "X",
            "X_dot",
            "regime",
            "lab_shift",
            *REPORT_COLUMNS,
            "violation",
            "balance_residual",
        ]

    def csv_rows(self) -> list[list]:
        """One row per reported step k, matching csv_header(): the step's
        shift velocity and checks beside the evaluation at its end."""
        m = self.monitor
        rows = []
        for k in _reported_steps(len(self.times), self.config.report_stride):
            t, x, *report = self.evaluations[k + 1].tolist()
            rows.append(
                [t, x, m["X_dot"][k], m["regime"][k], m["lab_shift"][k]]
                + report
                + [m["violation"][k], m["balance_residual"][k]]
            )
        return rows

    def verdict(self) -> dict:
        m = self.monitor
        tol = self.config.violation_tol
        # int_0^{t_j} D, with D at each time level
        cum_d = _cumulative_trapezoid(self.column("D"), np.diff(self.column("t")))
        # signed: <= 0 is the margin by which the inequality held
        dissipation_excess = float(np.max(m["eta_weighted"] + self.config.delta0 * cum_d - self.e0))
        violations = m["violation"]
        eta_unw = m["eta_unweighted"]
        monitored = np.abs(m["Y"]) <= self.config.params.eps**2
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


def run(config: SolverConfig) -> RunResult:
    """Integrate PDE and shift ODE in lockstep, evaluating every time level."""
    params = config.params
    refs = reference_arrays(params, config.grid)
    state = _initial_state(params, config.grid, config.perturbation, refs)

    dt = config.dt if config.dt is not None else _stable_dt(params, config.grid, state, config.cfl)
    n_steps = max(1, int(np.ceil(config.t_end / dt - 1e-12)))
    dt = config.t_end / n_steps
    stepper = _Stepper(params, config.grid, refs, dt)

    x = 0.0
    current = state
    report = evaluate_report(params, current, config.delta0, config.delta1, shift=0.0)
    evaluations = np.empty((n_steps + 1, len(EVALUATION_COLUMNS)))
    evaluations[0] = (0.0, x, *(getattr(report, name) for name in REPORT_COLUMNS))
    reported = set(_reported_steps(n_steps, config.report_stride))
    states = [] if config.keep_states else None

    n = state.n.values.copy()
    q = state.q.values.copy()
    for k in range(n_steps):
        x = advance(x, current, dt, params, start=(report.Y, report.I_bad))
        n, q = stepper.step(n, q)
        t = (k + 1) * dt
        _check_state(n, q, t=t)
        current = State(n=GridField(config.grid, n), q=GridField(config.grid, q))
        report = evaluate_report(params, current, config.delta0, config.delta1, shift=x)
        evaluations[k + 1] = (t, x, *(getattr(report, name) for name in REPORT_COLUMNS))
        if states is not None and k in reported:
            states.append((t, current))

    return RunResult(
        config=config,
        dt=dt,
        evaluations=evaluations,
        initial_state=state,
        final_state=current,
        states=states,
    )


def reconstruct_concentration(q: GridField, c_ref: float) -> GridField:
    """Undo the log-gradient transform: c(xi) = c_ref exp(-int_{xi_min}^xi q).

    c_ref anchors the multiplicative constant at the left boundary.
    """
    if not c_ref > 0.0:
        raise ValueError("c_ref must be positive")
    antideriv = np.concatenate(([0.0], _cumulative_trapezoid(q.values, q.grid.dx)))
    return q.with_values(c_ref * np.exp(-antideriv))
