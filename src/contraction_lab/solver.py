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
`run()` builds one `_Stepper` per run, once dt is known.  The solve's
matrix I - r D2 has Dirichlet rows at both ends, and each step zeroes the
right-hand side there, so both ends solve to 0 and only the interior
system is solved: diagonal 1 + 2r, off-diagonal -r, symmetric positive
definite.  The stepper factors it once as L D L^T (LAPACK's dpttrf), and
each step solves with the factors (dpttrs), bit for bit as LAPACK's dptsv
would solve the unfactored interior system, and to rounding as
`scipy.linalg.solve_banded` solves the whole matrix.  The two routines come
from scipy's compiled LAPACK wrapper, `scipy.linalg._flapack`, loaded on
its own (`_load_flapack`): importing `scipy.linalg` for them would cost
more than half of the package's import.

The step works in delta form around the sampled wave: the discrete
residual of the wave is subtracted from the right-hand side, and the
diffusion solve acts on the difference from the wave.  This makes the
sampled wave a bit-exact fixed point of the scheme: a zero perturbation
stays identically zero, shift included.

Monitoring evaluates each (state, shift) pair once, and stores it once.  The
evaluation at time level j, (U_j, X_j), is row j of one preallocated table,
`RunResult.evaluations` (`results`); it also gives the first shift substep
of step j.  Only the later shift substeps, at new shifts, evaluate again.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
from numpy.linalg import LinAlgError
from numpy.random import default_rng

from .functionals import (
    REPORT_COLUMNS,
    NumericsError,
    ReferenceArrays,
    State,
    _release_rows,
    _rows,
    evaluate_report,
    reference_arrays,
)
from .grid import Grid, GridField, _ddx_central, _ddx_forward_biased
from .results import EVALUATION_COLUMNS, RunResult, _reported_steps
from .shift import advance
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
dpttrf = _flapack.dpttrf
dpttrs = _flapack.dpttrs

__all__ = [
    "StabilityError", "PerturbationSpec", "SolverConfig", "RunResult", "EVALUATION_COLUMNS",
    "TIMINGS", "initial_state", "run",
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
        for name in ("amplitude_n", "amplitude_q", "width", "center"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"perturbation {name} must be finite, got {getattr(self, name)}")
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
    # keep the state of every keep_states-th reported step (1: every one)
    keep_states: int = 0
    violation_tol: float = 1e-7

    def __post_init__(self):
        if not (0.0 < self.cfl <= 1.0):
            raise ValueError("cfl must lie in (0, 1]")
        if not 0.0 < self.t_end < np.inf:
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if self.report_stride < 1:
            raise ValueError("report_stride must be >= 1")
        if self.keep_states < 0:
            raise ValueError("keep_states must be >= 0")
        if self.dt is not None and not 0.0 < self.dt < np.inf:
            raise ValueError(f"dt must be positive and finite when given, got {self.dt}")
        if not 0.0 < self.delta0 < 0.5:
            raise ValueError("delta0 must lie in (0, 1/2)")
        if not self.delta1 > 0.0:  # inf puts the whole line inside the tube
            raise ValueError("delta1 must be positive")
        # an infinite tolerance would pass every step, whatever E did
        if not 0.0 < self.violation_tol < np.inf:
            raise ValueError(f"violation_tol must be positive and finite, got {self.violation_tol}")
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


def initial_state(
    params: WaveParams, grid: Grid, spec: PerturbationSpec, refs: ReferenceArrays
) -> State:
    """Sampled wave plus perturbation, validated for positivity and decay;
    `refs` are the references on `grid` at shift 0."""
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


def solve_banded(factors: tuple, rhs: np.ndarray) -> np.ndarray:
    """Solve the implicit diffusion system for `rhs`, in place, from the
    L D L^T factors of its interior (the first two outputs of LAPACK's
    `dpttrf`); `rhs` is contiguous, with both end values 0, and they stay 0.

    LAPACK's dpttrs does the substitutions that dptsv does once it has
    factored: the two agree bit for bit.
    """
    _, info = dpttrs(*factors, rhs[1:-1], overwrite_b=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpttrs")
    return rhs


class _Stepper:
    """The step of one run: its grid, references and dt are fixed when it is
    built, and so is the matrix of the implicit diffusion solve, factored
    once.  Each step writes its stages in place on rows borrowed from the
    grid's evaluation workspace (no evaluation runs during a step), and
    returns new arrays."""

    def __init__(self, params: WaveParams, grid: Grid, refs: ReferenceArrays, dt: float):
        self.sigma = params.sigma
        self.grid = grid
        self.dx = grid.dx
        self.refs = refs
        self.dt = dt
        # the first-order residual of the sampled wave: _rhs against a zero
        # residual, which subtracts nothing (x - 0.0 is x)
        m = grid.num_nodes
        self.residual_n = self.residual_q = 0.0
        self.residual_n, self.residual_q = self._rhs(
            refs.ntil, refs.qtil, np.empty(m), np.empty(m), *np.empty((2, m))
        )
        # the interior block of I - r D2: the Dirichlet rows at both ends
        # see a zero right-hand side, so the ends solve to 0 and drop out
        r = params.nu * dt / (self.dx * self.dx)
        *factors, info = dpttrf(np.full(m - 2, 1.0 + 2.0 * r), np.full(m - 3, -r),
                                overwrite_d=1, overwrite_e=1)
        if info != 0:
            raise LinAlgError("diffusion matrix not positive definite")
        self.factors = tuple(factors)

    def _rhs(self, n, q, rn, rq, s0, s1):
        """The first-order residual R_h(U) in delta form, written into and
        returned as (rn, rq): sigma-advection upwinded (forward, sigma in
        the stencil's scale), coupling central, less the wave's residual,
        with zero boundary rows; s0 and s1 are scratch."""
        dx, sigma = self.dx, self.sigma
        _ddx_forward_biased(n, dx, out=rn, scratch=s0, speed=sigma)
        rn += _ddx_central(np.multiply(n, q, out=s0), dx, out=s1)
        _ddx_forward_biased(q, dx, out=rq, scratch=s0, speed=sigma)
        rq += _ddx_central(n, dx, out=s0)
        rn -= self.residual_n
        rq -= self.residual_q
        rn[0] = rn[-1] = 0.0
        rq[0] = rq[-1] = 0.0
        return rn, rq

    def step(self, n: np.ndarray, q: np.ndarray):
        dt = self.dt
        n_stage, q_stage, rn_stage, rq_stage, s0, s1 = _rows(self.grid).rows[:6]
        # two-stage (Heun) update of the first-order terms: the stage is
        # U + dt R(U), and the update U + (dt/2) (R(U) + R(stage))
        rn, rq = self._rhs(n, q, np.empty_like(n), np.empty_like(q), s0, s1)
        np.multiply(dt, rn, out=n_stage)
        n_stage += n
        np.multiply(dt, rq, out=q_stage)
        q_stage += q
        self._rhs(n_stage, q_stage, rn_stage, rq_stage, s0, s1)
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
        n_new = solve_banded(self.factors, rhs)
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


# The phases of the run loop that RunResult.timings sums: the PDE steps, the
# shift substeps, the reports (t = 0 included), and the rest of the loop
# (each new State and its checks, the table rows, the kept states).
TIMINGS = ("step_s", "shift_s", "evaluate_s", "bookkeeping_s")


def run(config: SolverConfig) -> RunResult:
    """Integrate PDE and shift ODE in lockstep, evaluating every time level.

    Past the checks of the config and the initial state, a ValueError (a
    DomainError from an evaluation, say) fails the run, not its input: it is
    raised again as a NumericsError that names the step.
    """
    params = config.params
    refs = reference_arrays(params, config.grid)
    state = initial_state(params, config.grid, config.perturbation, refs)

    dt = config.dt if config.dt is not None else _stable_dt(params, config.grid, state, config.cfl)
    n_steps = max(1, int(np.ceil(config.t_end / dt - 1e-12)))
    dt = config.t_end / n_steps
    stepper = _Stepper(params, config.grid, refs, dt)

    x = 0.0
    current = state
    evaluations = np.empty((n_steps + 1, len(EVALUATION_COLUMNS)))
    keep = int(config.keep_states)
    kept = set(_reported_steps(n_steps, config.report_stride)[::keep]) if keep else set()
    states = [] if keep else None
    clock = time.perf_counter
    step_s = shift_s = book_s = 0.0

    n = state.n.values.copy()
    q = state.q.values.copy()
    k = -1
    try:
        evaluate_s = -clock()
        report = evaluate_report(params, current, config.delta0, config.delta1, shift=0.0)
        evaluate_s += clock()
        evaluations[0] = (0.0, x, *(getattr(report, name) for name in REPORT_COLUMNS))
        for k in range(n_steps):
            t0 = clock()
            x = advance(x, current, dt, params, start=(report.Y, report.I_bad))
            t1 = clock()
            n, q = stepper.step(n, q)
            t2 = clock()
            t = (k + 1) * dt
            # the fields and the state check finiteness and positivity; only a
            # failed check looks again, to name the time and the node
            try:
                current = State(n=GridField(config.grid, n), q=GridField(config.grid, q))
            except ValueError:
                _check_state(n, q, t=t)
                raise
            t3 = clock()
            report = evaluate_report(params, current, config.delta0, config.delta1, shift=x)
            t4 = clock()
            evaluations[k + 1] = (t, x, *(getattr(report, name) for name in REPORT_COLUMNS))
            if k in kept:
                states.append((t, current))
            shift_s += t1 - t0
            step_s += t2 - t1
            evaluate_s += t4 - t3
            book_s += clock() - t4 + (t3 - t2)
    except ValueError as exc:
        raise NumericsError(f"{exc} (run failed at step {k + 1} of {n_steps})") from exc
    finally:
        _release_rows()

    return RunResult(
        config=config,
        dt=dt,
        evaluations=evaluations,
        initial_state=state,
        final_state=current,
        states=states,
        timings=dict(zip(TIMINGS, (step_s, shift_s, evaluate_s, book_s))),
    )
