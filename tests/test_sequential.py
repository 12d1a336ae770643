"""Tests for restricted-interaction sequential synthesis."""

import numpy as np
import pytest

from seqclone import sequential
from seqclone.cloning import GMSpec, KET_PLUS, gm_mps, gm_state
from seqclone.compression import METHOD_VARIATIONAL_SEEDED, compress
from seqclone.errors import StructureError
from seqclone.linalg import hermitian_expm
from seqclone.sequential import (
    CouplingSchedule,
    PAULI,
    StepCoupling,
    SynthesisResult,
    euler_zyz,
    fidelity_vs_target,
    optimize_schedule,
    sequential_generate,
    xxz_hamiltonian,
    xxz_unitary,
    _CostEngine,
    _XXZ_TERMS,
    _step_gate,
)


def random_state(rng, n):
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return v / np.linalg.norm(v)


class TestHamiltonians:
    def test_xxz_zero(self):
        assert np.allclose(xxz_hamiltonian(0.0, 0.0), np.zeros((4, 4)))

    def test_xxz_pure_zz(self):
        assert np.allclose(xxz_hamiltonian(0.0, 1.0), np.diag([1, -1, -1, 1]))

    def test_xxz_hermitian_and_u1_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            h1, h2 = rng.standard_normal(2)
            h = xxz_hamiltonian(h1, h2)
            assert np.max(np.abs(h - h.conj().T)) < 1e-14
            mag = np.kron(PAULI[3], PAULI[0]) + np.kron(PAULI[0], PAULI[3])
            assert np.max(np.abs(h @ mag - mag @ h)) < 1e-14

    def test_xxz_unitary_matches_expm(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            h1, h2 = rng.standard_normal(2) * 2
            direct = hermitian_expm(xxz_hamiltonian(h1, h2), 1.0)
            assert np.max(np.abs(xxz_unitary(h1, h2) - direct)) < 1e-12


class TestEuler:
    def test_unitary(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            u = euler_zyz(*rng.uniform(0, 4 * np.pi, 3))
            assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-13)

    def test_identity_at_zero(self):
        assert np.allclose(euler_zyz(0, 0, 0), np.eye(2))


class TestSequentialGenerate:
    def test_all_zero_couplings_fix_initial_state(self):
        sch = CouplingSchedule(steps=[StepCoupling(0, 0)] * 4)
        out = sequential_generate(sch, 4)
        expected = np.zeros(32)
        expected[0] = 1.0
        assert np.allclose(out, expected)

    def test_single_step_matches_dense_exponential(self):
        sch = CouplingSchedule(steps=[StepCoupling(0.8, 0.8)])
        out = sequential_generate(sch, 1)
        u = hermitian_expm(xxz_hamiltonian(0.8, 0.8), 1.0)
        assert np.max(np.abs(out - u @ np.array([1, 0, 0, 0]))) < 1e-12

    def test_norm_preserved(self):
        rng = np.random.default_rng(4)
        steps = [StepCoupling(*rng.standard_normal(2)) for _ in range(3)]
        sch = CouplingSchedule(
            steps=steps,
            aux_enabled=True,
            aux_qubit=rng.uniform(0, 2 * np.pi, (3, 3)),
            aux_ancilla=rng.uniform(0, 2 * np.pi, (3, 3)),
        )
        assert abs(np.linalg.norm(sequential_generate(sch, 3)) - 1.0) < 1e-12

    def test_step_count_mismatch(self):
        sch = CouplingSchedule(steps=[StepCoupling(0, 0)])
        with pytest.raises(ValueError, match="steps"):
            sequential_generate(sch, 2)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            CouplingSchedule(steps=[])
        with pytest.raises(ValueError):
            CouplingSchedule(steps=[StepCoupling(np.inf, 0.0)])

    @pytest.mark.parametrize("field", ["aux_qubit", "aux_ancilla"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_schedule_rejects_non_finite_angles(self, field, bad):
        angles = np.zeros((1, 3))
        angles[0, 1] = bad
        with pytest.raises(ValueError, match=field):
            CouplingSchedule(steps=[StepCoupling(0.3, 0.1)], aux_enabled=True, **{field: angles})


class TestFidelityVsTarget:
    def test_product_joint(self):
        rng = np.random.default_rng(5)
        target = random_state(rng, 3)
        phi = np.array([0.6, 0.8j])
        f, phi_opt = fidelity_vs_target(np.kron(phi, target), target)
        assert abs(f - 1.0) < 1e-12
        assert np.max(np.abs(phi_opt - phi)) < 1e-12

    def test_orthogonal_joint(self):
        target = np.array([1, 0, 0, 0], dtype=complex)
        orth = np.array([0, 1, 0, 0], dtype=complex)
        f, _ = fidelity_vs_target(np.kron(np.array([1, 0]), orth), target)
        assert f < 1e-14

    def test_beats_sampled_ancilla_vectors(self):
        rng = np.random.default_rng(6)
        target = random_state(rng, 3)
        joint = random_state(rng, 4)
        f, phi_opt = fidelity_vs_target(joint, target)
        samples = rng.standard_normal((10_000, 2)) + 1j * rng.standard_normal((10_000, 2))
        samples /= np.linalg.norm(samples, axis=1, keepdims=True)
        probe = np.abs(samples.conj() @ joint.reshape(2, -1) @ target.conj())
        assert np.all(probe <= f + 1e-12)
        got = abs(np.vdot(np.kron(phi_opt, target), joint))
        assert abs(got - f) < 1e-12

    def test_invariant_under_ancilla_unitaries(self):
        rng = np.random.default_rng(7)
        target = random_state(rng, 3)
        joint = random_state(rng, 4)
        f0, _ = fidelity_vs_target(joint, target)
        for _ in range(5):
            u = euler_zyz(*rng.uniform(0, 2 * np.pi, 3))
            rotated = (u @ joint.reshape(2, -1)).reshape(-1)
            f1, _ = fidelity_vs_target(rotated, target)
            assert abs(f1 - f0) < 1e-12

    def test_rejects_bad_dimensions(self):
        with pytest.raises(StructureError):
            fidelity_vs_target(np.ones(6), np.ones(4))


def central_difference(fn, x, h=1e-6):
    grad = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (fn(x + step) - fn(x - step)) / (2.0 * h)
    return grad


# the ids keep the entangler's name, "xxz", in front of the aux flag
AUX = pytest.mark.parametrize("aux", [True, False], ids=["xxz-True", "xxz-False"])


class TestGradient:
    @staticmethod
    def engine_and_params(aux, n):
        rng = np.random.default_rng(n + 10 * aux)
        engine = _CostEngine(random_state(rng, n), n, aux)
        return engine, rng.uniform(-np.pi, np.pi, engine.param_count())

    @pytest.mark.parametrize("n", [3, 5])
    @AUX
    def test_full_gradient_matches_finite_differences(self, aux, n):
        engine, params = self.engine_and_params(aux, n)
        cost, grad = engine.cost_and_grad(params)
        assert abs(cost - engine.cost(params)) < 1e-14
        assert np.max(np.abs(grad - central_difference(engine.cost, params))) < 1e-7

    @AUX
    def test_gradient_path_uses_the_step_gate(self, aux):
        rng = np.random.default_rng(8)
        coupling = rng.uniform(-np.pi, np.pi, 2)
        angles = rng.uniform(0.0, 2.0 * np.pi, 6) if aux else None
        u, du = _step_gate(coupling, angles, jac=True)
        assert np.max(np.abs(u - _step_gate(coupling, angles))) <= 1e-14
        assert du.shape == (coupling.size + (6 if aux else 0), 4, 4)

    @AUX
    def test_batched_step_gates_match_per_step_builds(self, aux):
        rng = np.random.default_rng(11)
        n = 4
        couplings = rng.uniform(-np.pi, np.pi, (n, 2))
        angles = rng.uniform(0.0, 2.0 * np.pi, (n, 6)) if aux else None
        u, du = _step_gate(couplings, angles, jac=True)
        half_z = -0.5j * PAULI[3]
        for k in range(n):
            ref_u = xxz_unitary(*couplings[k])
            ref_du = [-1j * g @ ref_u for g in _XXZ_TERMS]
            if aux:
                rots = [euler_zyz(*angles[k, :3]), euler_zyz(*angles[k, 3:])]
                jacs = [
                    [0.5 * euler_zyz(a[0] + np.pi, a[1], a[2]), half_z @ r, r @ half_z]
                    for a, r in zip((angles[k, :3], angles[k, 3:]), rots)
                ]
                local = np.kron(*rots)
                ref_du = (
                    [d @ local for d in ref_du]
                    + [ref_u @ np.kron(d, rots[1]) for d in jacs[0]]
                    + [ref_u @ np.kron(rots[0], d) for d in jacs[1]]
                )
                ref_u = ref_u @ local
            assert np.max(np.abs(u[k] - ref_u)) <= 1e-14
            assert np.max(np.abs(du[k] - np.array(ref_du))) <= 1e-14
        assert np.array_equal(_step_gate(couplings, angles), u)

    def test_zero_overlap_gives_zero_gradient(self):
        # XXZ without aux keeps |0...0>, which the |+> cloner state misses
        engine = _CostEngine(gm_state(GMSpec(2, KET_PLUS)), 3, False)
        params = np.random.default_rng(9).uniform(-np.pi, np.pi, engine.param_count())
        cost, grad = engine.cost_and_grad(params)
        assert cost == 2.0
        assert np.all(grad == 0.0)


class TestOptimizeSchedule:
    def test_three_qubit_target_with_aux(self):
        target = gm_state(GMSpec(2, KET_PLUS))
        res = optimize_schedule(
            target, 3, aux=True, restarts=3, seed=7, max_sweeps=50, inner_maxfev=300
        )
        assert 1.0 - res.fidelity <= 1e-6
        assert abs(res.cost - 2 * (1 - res.fidelity)) <= 1e-12
        # the reported schedule regenerates the reported state
        regen = sequential_generate(res.schedule, 3)
        assert np.max(np.abs(regen - res.generated)) < 1e-12

    def test_exact_preparation_reports_fidelity_at_most_one(self):
        # this restart reaches the target to rounding; unclamped, F - 1 = 2.2e-16
        target = gm_state(GMSpec(2, KET_PLUS))
        res = optimize_schedule(
            target, 3, aux=True, restarts=1, seed=3, max_sweeps=60, inner_maxfev=300
        )
        assert 1.0 - 1e-6 <= res.fidelity <= 1.0
        assert res.cost >= 0.0

    def test_result_rejects_fidelity_out_of_range(self):
        with pytest.raises(ValueError, match="fidelity out of range"):
            SynthesisResult(
                generated=np.zeros(16), fidelity=1.5, cost=-1.0,
                optimal_phi_final=np.zeros(2), iterations=0, restarts_used=1,
            )

    def test_cost_history_monotone(self):
        target = gm_state(GMSpec(2, KET_PLUS))
        res = optimize_schedule(
            target, 3, aux=True, restarts=1, seed=3, max_sweeps=15, inner_maxfev=200
        )
        h = res.cost_history
        assert all(b <= a + 1e-12 for a, b in zip(h, h[1:]))

    def test_without_aux_stays_on_invariant_state(self):
        # the entangler alone fixes |0...0> up to phase, so the best
        # reachable fidelity is the target's all-zeros amplitude: zero here
        target = gm_state(GMSpec(2, KET_PLUS))
        res = optimize_schedule(
            target, 3, aux=False, restarts=2, seed=5, max_sweeps=5, inner_maxfev=100
        )
        assert 1.0 - res.fidelity >= 0.4

    def test_degenerate_aux_off_run_is_not_converged(self):
        # the flat cost stalls at once; that is no evidence of an optimum
        target = gm_state(GMSpec(2, KET_PLUS))
        res = optimize_schedule(target, 3, aux=False, seed=0)
        assert 1.0 - res.fidelity == 1.0
        assert res.converged is False

    def test_deterministic_for_fixed_seed(self):
        target = gm_state(GMSpec(2, KET_PLUS))
        kwargs = dict(aux=True, restarts=1, seed=12, max_sweeps=6, inner_maxfev=150)
        r1 = optimize_schedule(target, 3, **kwargs)
        r2 = optimize_schedule(target, 3, **kwargs)
        assert r1.fidelity == r2.fidelity
        assert r1.cost_history == r2.cost_history

    def test_validation(self):
        target = gm_state(GMSpec(2, KET_PLUS))
        with pytest.raises(ValueError):
            optimize_schedule(target, 2, aux=True)
        with pytest.raises(ValueError):
            optimize_schedule(target / 2.0, 3, aux=True)
        with pytest.raises(ValueError):
            optimize_schedule(target, 3, aux=True, restarts=0)

    @pytest.mark.parametrize("keywords", [
        {"max_sweeps": 0}, {"inner_maxfev": 0}, {"sweep_tol": -1e-12},
        {"sweep_tol": float("nan")}, {"sweep_tol": float("inf")},
    ], ids=["max_sweeps", "inner_maxfev", "negative_tol", "nan_tol", "inf_tol"])
    def test_rejects_invalid_budget_keywords(self, keywords):
        target = gm_state(GMSpec(2, KET_PLUS))
        with pytest.raises(ValueError, match=next(iter(keywords))):
            optimize_schedule(target, 3, aux=True, restarts=1, **keywords)

    @staticmethod
    def counting_minimize(monkeypatch):
        """Patch ``sequential.minimize`` to keep every result it returns."""
        results, real = [], sequential.minimize

        def counted(*args, **kwargs):
            results.append(real(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(sequential, "minimize", counted)
        return results

    def test_one_optimizer_run_per_restart(self, monkeypatch):
        results = self.counting_minimize(monkeypatch)
        target = gm_state(GMSpec(2, KET_PLUS))
        res = optimize_schedule(
            target, 3, aux=True, restarts=1, seed=3, max_sweeps=60, inner_maxfev=300
        )
        assert len(results) == 1
        assert res.iterations == results[0].nit == len(res.cost_history) - 1
        assert 1.0 - res.fidelity <= 1e-6
        optimize_schedule(target, 3, aux=True, restarts=3, seed=3, max_sweeps=2)
        assert len(results) == 4

    def test_spent_budget_is_not_converged(self):
        target = gm_state(GMSpec(2, KET_PLUS))
        res = optimize_schedule(
            target, 3, aux=True, restarts=1, seed=3, max_sweeps=1, inner_maxfev=1
        )
        assert res.converged is False
        assert res.iterations == len(res.cost_history) - 1

    def test_zero_sweep_tol_runs_until_lbfgsb_stops(self, monkeypatch):
        results = self.counting_minimize(monkeypatch)
        target = gm_state(GMSpec(3, KET_PLUS))
        res = optimize_schedule(
            target, 5, aux=True, restarts=1, seed=5, max_sweeps=60, sweep_tol=0.0
        )
        (run,) = results
        # neither the budget nor the ftol test stopped it
        assert run.status != 1 and "REL_REDUCTION_OF_F" not in run.message
        assert res.converged is True
        assert res.iterations == run.nit

    def test_non_finite_target_is_rejected(self):
        # a NaN norm must fail the check; a clamp to 1 would hide it as F = 1
        with pytest.raises(ValueError, match="normalized"):
            optimize_schedule(
                np.full(8, np.nan), 3, aux=True, restarts=1, max_sweeps=1, inner_maxfev=5
            )

    def test_coupling_model_keyword_is_gone(self):
        target = gm_state(GMSpec(2, KET_PLUS))
        with pytest.raises(TypeError, match="coupling_model"):
            optimize_schedule(target, 3, aux=True, coupling_model="general")

    def test_bond_two_compression_bounds_the_restricted_search(self):
        # a two-level ancilla prepares exactly the bond-2 chains, so cap-2
        # compression is the unrestricted optimum; XXZ plus local rotations
        # reaches it here (the n = 5 restart of the xxz-synth benchmark)
        res = optimize_schedule(
            gm_state(GMSpec(3)), 5, aux=True, restarts=1, seed=5,
            max_sweeps=3, inner_maxfev=300, sweep_tol=0.0,
        )
        _, report = compress(gm_mps(GMSpec(3)), 2, METHOD_VARIATIONAL_SEEDED)
        error = 1.0 - res.fidelity
        assert error >= report.error - 1e-12
        assert error - report.error <= 1e-6
