import math

import numpy as np
import pytest

from contraction_lab import identities, make_wave_params
from contraction_lab.functionals import State, _split, evaluate_report, reference_arrays
from contraction_lab.grid import GridField
from contraction_lab.identities import (
    _harmonics,
    _references,
    _rel_err,
    check_identities,
    random_state,
)
from contraction_lab.wave import DomainError

from conftest import lab_grid, report_core


class TestRandomState:
    def test_deterministic(self, params, grid):
        a = random_state(params, grid, 3)
        b = random_state(params, grid, 3)
        np.testing.assert_array_equal(a.n.values, b.n.values)
        np.testing.assert_array_equal(a.q.values, b.q.values)

    def test_positive_density(self, params, grid):
        for seed in range(50):
            assert np.all(random_state(params, grid, seed).n.values > 0)

    def test_exercises_both_sides_of_tube(self, params, grid):
        refs = reference_arrays(params, grid)
        saw_outside = saw_inside = False
        for seed in range(50):
            w = np.abs(random_state(params, grid, seed).n.values / refs.ntil - 1.0)
            saw_outside = saw_outside or np.any(w > 0.49)
            saw_inside = saw_inside or np.any(w <= 0.05)
        assert saw_outside and saw_inside

    @pytest.mark.parametrize("eps, lam", [(0.1, 0.3), (0.05, 0.25)])
    @pytest.mark.parametrize("num_cells", [256, 1024])
    def test_matches_uncached_reference(self, eps, lam, num_cells):
        params = make_wave_params(2.0, 0.0, eps=eps, lam=lam)
        grid = lab_grid(params, num_cells=num_cells)
        for seed in (0, 1, 17, 123):
            got, want = random_state(params, grid, seed), _reference_random_state(params, grid, seed)
            assert np.array_equal(got.n.values, want.n.values)
            assert np.array_equal(got.q.values, want.q.values)

    @pytest.mark.parametrize("eps, lam", [(0.1, 0.3), (0.05, 0.25)])
    @pytest.mark.parametrize("num_cells", [256, 1024])
    def test_within_rounding_of_twelve_sines(self, eps, lam, num_cells):
        # the harmonics form against sin(r_k + phi) taken directly, within a
        # bound derived from the draws (see _twelve_sines_random_state)
        params = make_wave_params(2.0, 0.0, eps=eps, lam=lam)
        grid = lab_grid(params, num_cells=num_cells)
        u = np.finfo(float).eps / 2.0
        for seed in (0, 1, 17, 123):
            got = random_state(params, grid, seed)
            want, bound_g, bound_h = _twelve_sines_random_state(params, grid, seed)
            # n = n~ exp(g), and both forms multiply the same n~
            assert np.max(np.abs(np.log(got.n.values / want.n.values))) <= bound_g + 4.0 * u
            assert np.max(np.abs(got.q.values - want.q.values)) <= (
                bound_h + 2.0 * u * np.max(np.abs(want.q.values))
            )

    def test_fixed_arrays_are_shared_and_read_only(self, params):
        grid = lab_grid(params, num_cells=128)
        harmonics, refs = _harmonics(grid), _references(params, grid)
        random_state(params, grid, 5)
        assert _harmonics(grid) is harmonics and _references(params, grid) is refs
        assert harmonics.shape == (12, grid.num_nodes) and not harmonics.flags.writeable
        assert not refs.ntil.flags.writeable and not refs.qtil.flags.writeable
        fresh = reference_arrays(params, grid)
        assert np.array_equal(refs.ntil, fresh.ntil) and np.array_equal(refs.qtil, fresh.qtil)


class TestCheckIdentities:
    def test_full_suite_small(self, params):
        grid = lab_grid(params, num_cells=512)
        report = check_identities(params, grid, n_states=10, seed=0)
        assert report["all_passed"]
        for entry in report["identities"]:
            assert entry["max_rel_err"] <= 1e-10

    def test_criterion_two_states_hold_to_rounding(self, params):
        # the acceptance suite's states (criterion 2) gate at 1e-10, but the
        # identities hold to about 1e-16 on them: a change to the kernel
        # that lost four digits would pass that gate and fail this one
        grid = lab_grid(params, num_cells=2048)
        report = check_identities(params, grid, n_states=100, deltas=(0.05, 0.25, 0.49), seed=0)
        worst = max(entry["max_rel_err"] for entry in report["identities"])
        assert worst <= 1e-14, worst

    @pytest.mark.parametrize("deltas", [(0.05, 0.25, 0.49)])
    def test_matches_wrapper_reference(self, params, monkeypatch, deltas):
        # one core and one split per delta must give exactly what one
        # evaluation per functional gives, each with a core of its own
        grid = lab_grid(params, num_cells=256)
        fast = check_identities(params, grid, n_states=8, deltas=deltas, seed=1)
        monkeypatch.setattr(identities, "_check_one", _reference_check_one)
        reference = check_identities(params, grid, n_states=8, deltas=deltas, seed=1)
        assert fast == reference

    def test_deltas_past_the_tube_limit_pass(self, params):
        # the split is exact for any delta > 0, the decompositions included
        grid = lab_grid(params, num_cells=256)
        report = check_identities(params, grid, n_states=8, deltas=(0.1, 0.6), seed=1)
        assert report["all_passed"]
        for entry in report["identities"]:
            assert entry["max_rel_err"] <= 1e-10

    def test_nonpositive_delta_rejected(self, params):
        grid = lab_grid(params, num_cells=64)
        with pytest.raises(DomainError):
            check_identities(params, grid, n_states=2, deltas=(0.0,))

    def test_no_states_rejected(self, params):
        # no state leaves no error to take the worst of
        grid = lab_grid(params, num_cells=64)
        with pytest.raises(DomainError, match="n_states"):
            check_identities(params, grid, n_states=0)


def _reference_check_one(params, grid, seed, deltas):
    state = random_state(params, grid, seed)
    ibad = report_core(params, state, 0.0).I_bad
    igood = report_core(params, state, 0.0).I_good
    y = report_core(params, state, 0.0).Y
    errors = {"max_split": 0.0, "sum_Y": 0.0}
    for d in deltas:
        b = _split(report_core(params, state, 0.0), d).B
        g = _split(report_core(params, state, 0.0), d).G
        scale = max(abs(ibad), igood, abs(b), g, 1.0)
        errors["max_split"] = max(errors["max_split"], _rel_err(ibad - igood, b - g, scale))
        rep = evaluate_report(params, state, delta1=d)
        y_parts = (rep.Y_g, rep.Y_b, rep.Y_l, rep.Y_s)
        errors["sum_Y"] = max(errors["sum_Y"], _rel_err(y, sum(y_parts), max(abs(y), 1.0)))
    return errors


def _reference_random_state(params, grid, seed):
    # random_state without its caches, written out straight-line: each
    # sin(r_k + phi) as (c/k) cos phi sin r_k + (c/k) sin phi cos r_k, the
    # sine terms of k = 1..6 summed first, then the cosine terms
    rng = np.random.default_rng(seed)
    xi = grid.nodes()
    span = grid.xi_max - grid.xi_min
    sines, cosines = {"g": [], "h": []}, {"g": [], "h": []}
    for k in range(1, 7):
        ramp = 2.0 * np.pi * k * (xi - grid.xi_min) / span
        for name in ("g", "h"):
            c, phi = rng.normal() / k, rng.uniform(0, 2 * np.pi)
            sines[name].append(c * math.cos(phi) * np.sin(ramp))
            cosines[name].append(c * math.sin(phi) * np.cos(ramp))
    g, h = (sum(sines[name] + cosines[name]) for name in ("g", "h"))
    g *= rng.uniform(0.05, 1.0) / max(np.max(np.abs(g)), 1e-12)
    h *= rng.uniform(0.05, 1.5) / max(np.max(np.abs(h)), 1e-12)
    refs = reference_arrays(params, grid)
    n = refs.ntil * np.exp(g)
    q = refs.qtil + h
    return State(n=GridField(grid, n), q=GridField(grid, q))


def _twelve_sines_random_state(params, grid, seed):
    # random_state as it was before it read cached harmonics: twelve sines
    # of r_k + phi, each argument rounded before its sine.  Also returns a
    # bound on how far random_state's final g and h may lie from these.  A
    # term (c/k) sin(r_k + phi) of either form errs by at most
    # (|r_k + phi| + 6) u |c|/k (the rounded argument, the sines and the
    # products; r_k is the same array in both), and a sum of six such terms
    # by 6 u sum |c|/k more.  Scaling by s / max|g| at most doubles the
    # relative error of g.
    rng = np.random.default_rng(seed)
    xi = grid.nodes()
    span = grid.xi_max - grid.xi_min
    g = np.zeros_like(xi)
    h = np.zeros_like(xi)
    size_g = size_h = 0.0  # sum of |c|/k
    for k in range(1, 7):
        c = rng.normal() / k
        g += c * np.sin(2.0 * np.pi * k * (xi - grid.xi_min) / span + rng.uniform(0, 2 * np.pi))
        size_g += abs(c)
        c = rng.normal() / k
        h += c * np.sin(2.0 * np.pi * k * (xi - grid.xi_min) / span + rng.uniform(0, 2 * np.pi))
        size_h += abs(c)
    reach = 2.0 * np.pi * 7  # |r_k + phi| <= 2 pi k + 2 pi
    u = np.finfo(float).eps / 2.0
    bounds = []
    for values, size, scale in ((g, size_g, rng.uniform(0.05, 1.0)), (h, size_h, rng.uniform(0.05, 1.5))):
        peak = max(np.max(np.abs(values)), 1e-12)
        values *= scale / peak
        bounds.append(2.0 * scale / peak * (reach + 12.0) * u * size)
    refs = reference_arrays(params, grid)
    n = refs.ntil * np.exp(g)
    q = refs.qtil + h
    return State(n=GridField(grid, n), q=GridField(grid, q)), *bounds
