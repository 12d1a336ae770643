"""Tests for the in-package L-BFGS and its More-Thuente line search."""

import numpy as np
import pytest

from seqclone import lbfgs, sequential
from seqclone.cloning import GMSpec, gm_state
from test_sequential import descend


def ignore(cost):
    pass


def one_dim(phi, dphi):
    """``fun(x) -> (cost, gradient)`` of a function of one variable."""
    return lambda x: (float(phi(x[0])), np.array([float(dphi(x[0]))]))


def rosen(x):
    r = x[1:] - x[:-1] ** 2
    f = float(np.sum(100.0 * r**2 + (1.0 - x[:-1]) ** 2))
    g = np.zeros_like(x)
    g[:-1] = -400.0 * x[:-1] * r - 2.0 * (1.0 - x[:-1])
    g[1:] += 200.0 * r
    return f, g


CASES = {
    # minimum at 3
    "quadratic": (lambda a: (a - 3.0) ** 2, lambda a: 2.0 * (a - 3.0)),
    # minimum at 1, and a cost that falls without bound left of -1
    "cubic": (lambda a: a**3 - 3.0 * a, lambda a: 3.0 * a**2 - 3.0),
    # flat at the minimum 0.5, steep away from it
    "quartic": (lambda a: 100.0 * (a - 0.5) ** 4, lambda a: 400.0 * (a - 0.5) ** 3),
}


def two_loop(pairs, g):
    """Reference ``H g`` by the two-loop recursion over ``(s, y)``, oldest first."""
    q, alphas = g.copy(), []
    for s, y in reversed(pairs):
        alphas.append((s @ q) / (s @ y))
        q -= alphas[-1] * y
    s, y = pairs[-1]
    r = (s @ y) / (y @ y) * q
    for (s, y), alpha in zip(pairs, reversed(alphas)):
        r += s * (alpha - (y @ r) / (s @ y))
    return r


@pytest.mark.parametrize("pushes", [1, 3, lbfgs.MEMORY, lbfgs.MEMORY + 3, 3 * lbfgs.MEMORY + 1])
def test_compact_form_matches_two_loop_recursion(pushes):
    rng = np.random.default_rng(pushes)
    p = 12
    hessian = rng.standard_normal((p, p))
    hessian = hessian @ hessian.T + np.eye(p)
    memory, pairs = lbfgs._Memory(p), []
    for _ in range(pushes):
        s = rng.standard_normal(p)
        y = hessian @ s
        memory.push(s, y, float(s @ y))
        pairs = (pairs + [(s, y)])[-lbfgs.MEMORY:]
    g = rng.standard_normal(p)
    expected = two_loop(pairs, g)
    assert np.max(np.abs(memory.times(g) - expected)) <= 1e-12 * np.max(np.abs(expected))


class TestLineSearch:
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("first", [1e-6, 1e-2, 0.3, 1.0, 7.0, 1e3])
    def test_meets_strong_wolfe(self, case, first):
        phi, dphi = CASES[case]
        fun = one_dim(phi, dphi)
        x, d = np.zeros(1), np.ones(1)
        f0, gd0 = phi(0.0), dphi(0.0)
        assert gd0 < 0.0
        found, evals = lbfgs._line_search(fun, x, x + d, d, f0, gd0, first)
        assert found is not None and 1 <= evals <= lbfgs.MAX_EVALS
        stp, xt, f, g, gd = found
        assert xt[0] == stp and f == phi(stp) and gd == dphi(stp)
        assert f <= f0 + 1e-3 * stp * gd0
        assert abs(gd) <= 0.9 * abs(gd0)

    def test_accepting_first_trial_costs_one_evaluation(self):
        phi, dphi = CASES["quadratic"]
        found, evals = lbfgs._line_search(
            one_dim(phi, dphi), np.zeros(1), np.ones(1), np.ones(1), phi(0.0), dphi(0.0), 3.0
        )
        assert evals == 1 and found[0] == 3.0


class TestMinimize:
    @pytest.mark.parametrize("p", [2, 10])
    def test_rosenbrock_minimum(self, p):
        x0 = np.tile([-1.2, 1.0], p // 2)
        res = lbfgs.minimize(rosen, x0, ftol=0.0, maxfun=10_000, callback=ignore)
        assert res.status == 0 and res.message == "gradient below gtol"
        assert np.max(np.abs(res.x - 1.0)) <= 1e-10
        assert res.fun == rosen(res.x)[0]

    def test_callback_sees_the_start_and_every_iteration(self):
        seen, x0 = [], np.array([-1.2, 1.0])
        res = lbfgs.minimize(rosen, x0, ftol=0.0, maxfun=10_000, callback=seen.append)
        assert len(seen) == res.nit + 1
        assert seen[0] == rosen(x0)[0] and seen[-1] == res.fun
        assert all(b <= a for a, b in zip(seen, seen[1:]))

    def test_budget_stops_with_status_1(self):
        res = lbfgs.minimize(rosen, np.array([-1.2, 1.0]), ftol=0.0, maxfun=5, callback=ignore)
        assert (res.status, res.message) == (1, "budget spent")
        assert 5 < res.nfev <= 5 + lbfgs.MAX_EVALS and res.nit < res.nfev

    def test_ftol_stops_on_small_reduction(self):
        res = lbfgs.minimize(
            rosen, np.array([-1.2, 1.0]), ftol=1e-3, maxfun=10_000, callback=ignore
        )
        assert res.status == 0 and "ftol" in res.message
        assert res.fun > 1e-12

    def test_failed_search_with_empty_memory_keeps_the_start(self):
        # the reported slope points uphill, so no step decreases the cost
        x0 = np.array([0.3, -0.2])
        res = lbfgs.minimize(
            lambda x: (float(x @ x), -2.0 * x), x0, ftol=0.0, maxfun=100, callback=ignore
        )
        assert res.status == 2 and res.nit == 0
        assert np.array_equal(res.x, x0) and res.fun == float(x0 @ x0)

    def test_callback_returning_true_stops_the_run(self):
        seen = []

        def below(cost):
            seen.append(cost)
            return cost <= 1e-3

        res = lbfgs.minimize(rosen, np.array([-1.2, 1.0]), ftol=0.0, maxfun=10_000, callback=below)
        assert (res.status, res.message) == (0, lbfgs.STOPPED)
        assert res.fun == seen[-1] <= 1e-3 < min(seen[:-1])
        assert len(seen) == res.nit + 1
        assert np.max(np.abs(res.x - 1.0)) > 1e-10  # stopped well before the minimum

    def test_callback_can_stop_at_the_start(self):
        x0 = np.array([-1.2, 1.0])
        res = lbfgs.minimize(rosen, x0, ftol=0.0, maxfun=10_000, callback=lambda cost: True)
        assert (res.status, res.message, res.nit, res.nfev) == (0, lbfgs.STOPPED, 0, 1)
        assert np.array_equal(res.x, x0)

    def test_zero_gradient_start_is_converged(self):
        res = lbfgs.minimize(
            lambda x: (0.0, np.zeros_like(x)), np.ones(3), ftol=0.0, maxfun=10, callback=ignore
        )
        assert (res.status, res.nit, res.nfev) == (0, 0, 1)


def test_synthesis_restart_matches_scipy_lbfgsb():
    """The n = 3 aux-on global-search restart (``optimize_schedule``'s fallback
    at seed 3) takes scipy L-BFGS-B's iterations and evaluations."""
    optimize = pytest.importorskip("scipy.optimize")
    runs = {}

    def record(name, run):
        def wrapped(fun, x0, **options):
            runs[name] = run(fun, x0, **options)
            return runs[name]
        return wrapped

    def scipy_run(fun, x0, *, ftol, maxfun, callback):
        callback(fun(x0)[0])
        return optimize.minimize(
            fun, x0, jac=True, method="L-BFGS-B",
            callback=lambda intermediate_result: callback(float(intermediate_result.fun)),
            options={"ftol": ftol, "gtol": lbfgs.GTOL, "maxiter": maxfun, "maxfun": maxfun},
        )

    target = gm_state(GMSpec(2))
    results = {}
    for name, run in (("own", lbfgs.minimize), ("scipy", scipy_run)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sequential, "minimize", record(name, run))
            results[name] = descend(target, 3, restarts=1, seed=3, max_sweeps=60, inner_maxfev=300)
    assert (runs["own"].nit, runs["own"].nfev) == (runs["scipy"].nit, runs["scipy"].nfev)
    assert runs["own"].status == runs["scipy"].status == 0
    assert abs(results["own"].fidelity - results["scipy"].fidelity) <= 1e-12
