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
factors the tridiagonal matrix of the solve once (LAPACK's dgttrf); each
step solves with the factors (dgttrs), bit for bit as
`scipy.linalg.solve_banded` would solve the unfactored matrix.  The two
routines come from scipy's compiled LAPACK wrapper, `scipy.linalg._flapack`,
loaded on its own (`_load_flapack`): importing `scipy.linalg` for them would
cost more than half of the package's import.

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

import importlib.machinery
import importlib.util
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
from numpy.linalg import LinAlgError
from numpy.random import default_rng

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


def _load_flapack():
    """scipy's compiled LAPACK wrapper, without running `scipy/__init__`.

    `find_spec("scipy")` locates the package without importing it, and the
    extension is loaded from `scipy/linalg` by `ExtensionFileLoader`.  The
    import system registers it as `scipy.linalg._flapack`, so a later
    `import scipy.linalg` uses this module and `scipy.linalg.lapack` exports
    the same function objects.
    """
    name = "scipy.linalg._flapack"
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ImportError("contraction_lab needs scipy for its diffusion solve", name="scipy")
    directory = str(Path(scipy_spec.submodule_search_locations[0], "linalg"))
    finder = importlib.machinery.FileFinder(
        directory, (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
    )
    spec = finder.find_spec(name)
    if spec is None:
        from importlib.metadata import version

        raise ImportError(
            f"no compiled _flapack extension in {directory} (scipy {version('scipy')})",
            name=name,
        )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dgttrf = _flapack.dgttrf
dgttrs = _flapack.dgttrs

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
    # keep the state of every keep_states-th reported step (True: every one)
    keep_states: int = 0
    violation_tol: float = 1e-7

    def __post_init__(self):
        if not (0.0 < self.cfl <= 1.0):
            raise ValueError("cfl must lie in (0, 1]")
        if self.t_end <= 0.0:
            raise ValueError("t_end must be positive")
        if self.report_stride < 1:
            raise ValueError("report_stride must be >= 1")
        if self.keep_states < 0:
            raise ValueError("keep_states must be >= 0")
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
        rng = default_rng(spec.seed)
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


def solve_banded(lu: tuple, rhs: np.ndarray) -> np.ndarray:
    """Solve the implicit diffusion system for `rhs`, in place, from the
    matrix's LU factors (the first five outputs of LAPACK's `dgttrf`).

    LAPACK's dgttrs does the forward and back substitutions that dgtsv, which
    `scipy.linalg.solve_banded` calls for a tridiagonal matrix, does while it
    factors: on this matrix the two agree bit for bit.
    """
    x, info = dgttrs(*lu, rhs, overwrite_b=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dgttrs")
    return x


class _Stepper:
    """The step of one run: its grid, references and dt are fixed when it is
    built, and so is the matrix of the implicit diffusion solve, factored
    once.  Each step writes its stages in place on the arrays it allocates,
    and returns new arrays."""

    def __init__(self, params: WaveParams, grid: Grid, refs: ReferenceArrays, dt: float):
        self.sigma = params.sigma
        self.dx = grid.dx
        self.refs = refs
        self.dt = dt
        # hyperbolic residuals of the sampled wave
        self.residual_n, self.residual_q = self._hyperbolic(refs.ntil, refs.qtil)
        # the tridiagonal matrix I - r D2, with Dirichlet rows at both ends
        m = grid.num_nodes
        r = params.nu * dt / (self.dx * self.dx)
        lower = np.full(m - 1, -r)
        diag = np.full(m, 1.0 + 2.0 * r)
        upper = np.full(m - 1, -r)
        diag[0] = diag[-1] = 1.0
        upper[0] = lower[-1] = 0.0
        *lu, info = dgttrf(lower, diag, upper, overwrite_dl=1, overwrite_d=1, overwrite_du=1)
        if info > 0:
            raise LinAlgError("singular diffusion matrix")
        self.lu = tuple(lu)

    def _hyperbolic(self, n: np.ndarray, q: np.ndarray):
        """First-order terms: sigma-advection upwinded (forward), coupling central."""
        rn = _ddx_forward_biased(n, self.dx)
        rn *= self.sigma
        rn += _ddx_central(n * q, self.dx)
        rq = _ddx_forward_biased(q, self.dx)
        rq *= self.sigma
        rq += _ddx_central(n, self.dx)
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
        # two-stage (Heun) update of the first-order terms: the stage is
        # U + dt R(U), and the update U + (dt/2) (R(U) + R(stage))
        rn, rq = self._rhs(n, q)
        n_stage = np.multiply(dt, rn)
        n_stage += n
        q_stage = np.multiply(dt, rq)
        q_stage += q
        rn_stage, rq_stage = self._rhs(n_stage, q_stage)
        rn += rn_stage
        rn *= 0.5 * dt
        rn += n
        q_new = rq
        q_new += rq_stage
        q_new *= 0.5 * dt
        q_new += q

        # backward-Euler diffusion in delta form around the sampled wave
        rhs = rn
        rhs -= self.refs.ntil
        rhs[0] = rhs[-1] = 0.0
        # unchecked: a non-finite value reaches run()'s state check, which
        # reports it as a stability error with its time and node
        n_new = solve_banded(self.lu, rhs)
        n_new += self.refs.ntil
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
    store of monitored numbers; `monitor`, the CSV columns and the verdict are
    derived from it.
    """

    config: SolverConfig
    dt: float
    evaluations: np.ndarray  # (n_steps + 1, len(EVALUATION_COLUMNS))
    initial_state: State
    final_state: State
    states: Optional[list] = None  # (t, State) at every keep_states-th reported step

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

    def csv_columns(self) -> list:
        """The run table's columns in csv_header() order, one entry per
        reported step k: the step's shift velocity and checks beside the
        evaluation at its end.  regime is a list of str, the rest arrays."""
        m = self.monitor
        steps = _reported_steps(len(self.times), self.config.report_stride)
        at = np.array(steps, dtype=np.intp)
        ends = self.evaluations[at + 1]
        return [
            ends[:, 0],
            ends[:, 1],
            m["X_dot"][at],
            [m["regime"][k] for k in steps],
            m["lab_shift"][at],
            *ends[:, 2:].T,
            m["violation"][at],
            m["balance_residual"][at],
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
    keep = int(config.keep_states)
    kept = set(_reported_steps(n_steps, config.report_stride)[::keep]) if keep else set()
    states = [] if keep else None

    n = state.n.values.copy()
    q = state.q.values.copy()
    for k in range(n_steps):
        x = advance(x, current, dt, params, start=(report.Y, report.I_bad))
        n, q = stepper.step(n, q)
        t = (k + 1) * dt
        # the fields and the state check finiteness and positivity; only a
        # failed check looks again, to name the time and the node
        try:
            current = State(n=GridField(config.grid, n), q=GridField(config.grid, q))
        except ValueError:
            _check_state(n, q, t=t)
            raise
        report = evaluate_report(params, current, config.delta0, config.delta1, shift=x)
        evaluations[k + 1] = (t, x, *(getattr(report, name) for name in REPORT_COLUMNS))
        if k in kept:
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
