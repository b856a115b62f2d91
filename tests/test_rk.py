"""Tableaus, stepping, integration, and empirical convergence orders."""

import math

import numpy as np
import pytest

from rknet import rk


DECAY = rk.problem_library("decay")
LOGISTIC = rk.problem_library("logistic")


class TestTableauLibrary:
    def test_euler_coefficients(self):
        tab = rk.tableau_library("euler")
        assert tab.s == 1
        assert tab.b.tolist() == [1.0]
        assert tab.c.tolist() == [0.0]

    def test_rk4_weights(self):
        tab = rk.tableau_library("rk4")
        assert tab.s == 4
        assert np.allclose(tab.b, [1 / 6, 1 / 3, 1 / 3, 1 / 6])

    def test_gauss2_nodes(self):
        tab = rk.tableau_library("gauss2")
        root = math.sqrt(3) / 6
        assert np.allclose(tab.c, [0.5 - root, 0.5 + root], atol=1e-15)

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown tableau"):
            rk.tableau_library("rk99")

    @pytest.mark.parametrize("name,explicit", [
        ("euler", True), ("heun", True), ("rk4", True),
        ("implicit_midpoint", False), ("gauss2", False)])
    def test_explicitness(self, name, explicit):
        assert rk.tableau_library(name).explicit is explicit

    @pytest.mark.parametrize("name", rk.tableau_names())
    def test_construction_invariants(self, name):
        tab = rk.tableau_library(name)
        assert abs(tab.b.sum() - 1.0) <= 1e-12
        assert np.max(np.abs(tab.c - tab.a.sum(axis=1))) <= 1e-12

    def test_inconsistent_weights_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            rk.ButcherTableau("bad", [[0.0]], [0.5], [0.0])
        with pytest.raises(ValueError, match="row sums"):
            rk.ButcherTableau("bad", [[0.0]], [1.0], [0.5])


class TestRkStep:
    @pytest.mark.parametrize("name", rk.tableau_names())
    def test_constant_slope_is_exact(self, name):
        # f == c makes every stage slope c, so y1 = y0 + h*c since sum(b) = 1
        tab = rk.tableau_library(name)
        c = np.array([2.0, -0.5])
        y1 = rk.rk_step(tab, lambda t, y: c, 0.0, np.array([1.0, 1.0]), 0.3)
        assert np.allclose(y1, [1.0, 1.0] + 0.3 * c, atol=1e-12)

    def test_euler_decay_single_step(self):
        y1 = rk.rk_step(rk.tableau_library("euler"), lambda t, y: -y, 0.0, np.array([1.0]), 0.1)
        assert y1[0] == pytest.approx(0.9, abs=1e-15)

    def test_rk4_decay_matches_expanded_formula(self):
        # independent expansion of the four-stage formula for f(t, y) = -y
        y, h = 1.0, 0.1
        k1 = -y
        k2 = -(y + h / 2 * k1)
        k3 = -(y + h / 2 * k2)
        k4 = -(y + h * k3)
        expected = y + h * (k1 + 2 * k2 + 2 * k3 + k4) / 6
        got = rk.rk_step(rk.tableau_library("rk4"), lambda t, y: -y, 0.0, np.array([1.0]), h)
        assert abs(got[0] - expected) < 1e-12
        assert got[0] == pytest.approx(0.9048375, abs=1e-12)  # frozen from the expansion

    def test_zero_step_size_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            rk.rk_step(rk.tableau_library("euler"), lambda t, y: -y, 0.0, np.array([1.0]), 0.0)

    @pytest.mark.parametrize("name", ["euler", "heun", "rk4"])
    def test_explicit_stepping_never_uses_later_stages(self, name):
        # record every f evaluation; check the call count is exactly s and each
        # stage argument is built only from slopes of strictly earlier calls
        tab = rk.tableau_library(name)
        calls = []

        def f(t, y):
            calls.append((t, y.copy()))
            return -y

        y0 = np.array([1.3])
        h = 0.2
        rk.rk_step(tab, f, 0.0, y0, h)
        assert len(calls) == tab.s
        z = [-y for _, y in calls]
        for i, (t_i, y_i) in enumerate(calls):
            expected = y0 + h * sum(tab.a[i, j] * z[j] for j in range(i))
            assert t_i == pytest.approx(tab.c[i] * h, abs=1e-15)
            assert np.allclose(y_i, expected, atol=1e-15)

    @pytest.mark.parametrize("name", ["implicit_midpoint", "gauss2"])
    def test_implicit_stage_residual(self, name):
        tab = rk.tableau_library(name)
        f = lambda t, y: y * (1.0 - y)
        y = np.array([0.3])
        z = rk.solve_implicit_stages(tab, f, 0.0, y, 0.1)
        assert rk.stage_residual(tab, f, 0.0, y, 0.1, z) < 1e-10

    def test_implicit_solver_divergence_reported(self):
        # Lipschitz constant far above 1/h makes fixed-point iteration diverge
        tab = rk.tableau_library("implicit_midpoint")
        with pytest.raises(rk.StageSolveError, match="did not converge"):
            rk.rk_step(tab, lambda t, y: -1e6 * y, 0.0, np.array([1.0]), 0.1)

    def test_implicit_solver_stops_at_the_iteration_cap(self):
        # on y' = -y the midpoint stage map z -> -(y + h/2 z) contracts by
        # h/2 = 0.95 per sweep, so from z0 = -1 the stage moves by 0.95**k in
        # sweep k: finite, but still far above STAGE_TOL at the cap
        tab = rk.tableau_library("implicit_midpoint")
        with pytest.raises(rk.StageSolveError, match="did not converge") as exc:
            rk.rk_step(tab, lambda t, y: -y, 0.0, np.array([1.0]), 1.9)
        assert exc.value.iterations == rk.STAGE_MAX_ITER
        assert exc.value.residual == pytest.approx(0.95 ** rk.STAGE_MAX_ITER, rel=1e-9)

    @pytest.mark.parametrize("name", rk.tableau_names())
    def test_step_linear_in_state_for_linear_f(self, name):
        tab = rk.tableau_library(name)
        mat = np.array([[0.0, 1.0], [-1.0, -0.2]])
        f = lambda t, y: mat @ y
        h = 0.1
        y1, y2 = np.array([1.0, 0.0]), np.array([-0.3, 2.0])
        lhs = rk.rk_step(tab, f, 0.0, 2.5 * y1 - 0.5 * y2, h)
        rhs = 2.5 * rk.rk_step(tab, f, 0.0, y1, h) - 0.5 * rk.rk_step(tab, f, 0.0, y2, h)
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestIntegrate:
    def test_requires_at_least_one_step(self):
        with pytest.raises(ValueError, match="n_steps"):
            rk.integrate(rk.tableau_library("euler"), DECAY, 0.1, 0)

    def test_single_step_equals_rk_step(self):
        tab = rk.tableau_library("heun")
        traj = rk.integrate(tab, DECAY, 0.1, 1)
        direct = rk.rk_step(tab, DECAY.f, DECAY.t0, DECAY.y0, 0.1)
        assert np.array_equal(traj.final_state, direct)
        assert len(traj.times) == len(traj.states) == 2

    def test_times_are_exact_arithmetic_progression(self):
        traj = rk.integrate(rk.tableau_library("euler"), DECAY, 0.1, 10)
        assert traj.times == [DECAY.t0 + i * 0.1 for i in range(11)]

    def test_euler_converges_to_exact_decay(self):
        traj = rk.integrate(rk.tableau_library("euler"), DECAY, 1e-3, 1000)
        assert abs(traj.final_state[0] - math.exp(-1.0)) < 1e-3


class TestEstimateOrder:
    @pytest.mark.parametrize("name,lo,hi", [
        ("euler", 0.8, 1.2),
        ("heun", 1.7, 2.3),
        ("rk4", 3.7, 4.3),
        ("implicit_midpoint", 1.7, 2.3),
        ("gauss2", 3.7, 4.3),  # the two-stage collocation method reaches order 2s
    ])
    @pytest.mark.parametrize("problem", [DECAY, LOGISTIC], ids=["decay", "logistic"])
    def test_orders_within_band(self, name, lo, hi, problem):
        order = rk.estimate_order(rk.tableau_library(name), problem, 0.1, 4)
        assert lo <= order <= hi, f"{name} on {problem.name}: measured {order}"

    def test_needs_exact_solution(self):
        prob = rk.OdeProblem(lambda t, y: -y, [1.0])
        with pytest.raises(ValueError, match="exact"):
            rk.estimate_order(rk.tableau_library("euler"), prob, 0.1, 3)

    def test_zero_error_advises_harder_problem(self):
        # y' = 0 is solved exactly by every method
        prob = rk.OdeProblem(lambda t, y: np.zeros_like(y), [1.0],
                             exact=lambda t: np.array([1.0]))
        with pytest.raises(ValueError, match="harder problem"):
            rk.estimate_order(rk.tableau_library("euler"), prob, 0.1, 3)

    def test_level_floor(self):
        with pytest.raises(ValueError, match="3 levels"):
            rk.estimate_order(rk.tableau_library("euler"), DECAY, 0.1, 2)
