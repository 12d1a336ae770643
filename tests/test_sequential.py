"""Tests for restricted-interaction sequential synthesis."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqclone import sequential
from seqclone.cloning import (
    GMSpec, KET_ONE, KET_PLUS, KET_ZERO, PureQubit, gm_chain, gm_mps, gm_state,
)
from seqclone.compression import METHOD_VARIATIONAL_SEEDED, compress
from seqclone.errors import CanonicalFormError
from seqclone.mps import MatrixProductState, from_statevector, norm, to_statevector
from seqclone.sequential import (
    CouplingSchedule,
    PAULI,
    StepCoupling,
    SynthesisResult,
    euler_zyz,
    fit_step,
    optimize_schedule,
    schedule_from_chain,
    sequential_generate,
    xxz_hamiltonian,
    xxz_unitary,
    zyz_angles,
    _CostEngine,
    _INNER_MAXFEV,
    _MAX_SWEEPS,
    _STEP_TOL,
    _StepCost,
    _SWEEP_TOL,
    _XXZ_TERMS,
    _chain_sites,
    _polar,
    _random_starts,
    _restarts,
    _result,
    _step_columns,
    _warm_start,
)
from test_linalg import random_complex
from test_mps import ragged_sites


def random_state(rng, n):
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return v / np.linalg.norm(v)


def descend(target, n, restarts, seed, max_sweeps=_MAX_SWEEPS, sweep_tol=_SWEEP_TOL,
            inner_maxfev=_INNER_MAXFEV):
    """The aux-on global search alone: ``optimize_schedule``'s random restarts
    through ``_descend``, without the constructive route."""
    if not isinstance(target, MatrixProductState):
        target = from_statevector(target)
    engine = _CostEngine(target, True)
    assert engine.n == n
    starts = _random_starts(engine, restarts, seed)
    params, history, converged = _restarts(engine, starts, max_sweeps, sweep_tol, inner_maxfev)
    return _result(engine, params, history, len(history) - 1, converged)


def hermitian_expm(h, scale=1.0):
    """Oracle ``exp(-1j * scale * h)`` of a Hermitian generator, by eigendecomposition."""
    h = np.asarray(h, dtype=np.complex128)
    asym = float(np.max(np.abs(h - h.conj().T)))
    if asym > 1e-12:
        raise ValueError(f"generator is not Hermitian: max asymmetry {asym:.3e}")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * scale * w)) @ v.conj().T


def step_unitary(row):
    """Dense oracle of a step's pair unitary, ancilla first: the XXZ
    exponential of the couplings ``row[:2]``, after the local rotations
    ``kron(R_ancilla, R_qubit)`` of the angles ``row[2:]`` when given."""
    u = hermitian_expm(xxz_hamiltonian(row[0], row[1]))
    if len(row) == 2:
        return u
    return u @ np.kron(euler_zyz(row[2:5]), euler_zyz(row[5:]))


class TestHermitianExpm:
    def test_zero_generator(self):
        assert np.allclose(hermitian_expm(np.zeros((3, 3)), 1.0), np.eye(3))

    def test_pauli_x_quarter_turn(self):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        assert np.allclose(hermitian_expm(sx, np.pi / 2), -1j * sx, atol=1e-12)

    def test_unitarity(self):
        rng = np.random.default_rng(6)
        a = random_complex(rng, 4, 4)
        h = a + a.conj().T
        u = hermitian_expm(h, 0.37)
        assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-12)

    def test_semigroup(self):
        rng = np.random.default_rng(7)
        a = random_complex(rng, 3, 3)
        h = a + a.conj().T
        lhs = hermitian_expm(h, 0.4) @ hermitian_expm(h, 1.1)
        assert np.allclose(lhs, hermitian_expm(h, 1.5), atol=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="asymmetry"):
            hermitian_expm(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


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
            u = euler_zyz(rng.uniform(0, 4 * np.pi, 3))
            assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-13)

    def test_identity_at_zero(self):
        assert np.allclose(euler_zyz(np.zeros(3)), np.eye(2))

    @staticmethod
    def phase_gap(u, v):
        """``max |u - e^{i chi} v|`` at the best global phase ``chi``."""
        t = np.trace(v.conj().T @ u)
        return float(np.max(np.abs(u - (t / abs(t)) * v)))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4))
    def test_angles_invert_the_rotation(self, angles):
        # any U(2): a rotation times a global phase
        u = np.exp(1j * angles[3]) * euler_zyz(angles[:3])
        theta = zyz_angles(u)
        assert 0.0 <= theta[0] <= np.pi
        assert self.phase_gap(euler_zyz(theta), u) <= 1e-15

    @pytest.mark.parametrize("theta", [0.0, np.pi])
    def test_angles_at_the_poles(self, theta):
        # at theta = 0 only phi + lam is fixed, at pi only phi - lam
        for phi, lam in [(0.3, -1.1), (2.0, 2.5), (-3.0, 0.0)]:
            u = np.exp(0.7j) * euler_zyz([theta, phi, lam])
            back = zyz_angles(u)
            assert back[0] == pytest.approx(theta, abs=1e-15)
            assert self.phase_gap(euler_zyz(back), u) <= 1e-15

    def test_angles_of_random_unitaries_in_one_batch(self):
        rng = np.random.default_rng(12)
        u = np.array([np.linalg.qr(random_complex(rng, 2, 2))[0] for _ in range(50)])
        rots = euler_zyz(zyz_angles(u))
        assert rots.shape == (50, 2, 2)
        assert max(self.phase_gap(r, v) for r, v in zip(rots, u)) <= 1e-15


class TestSequentialGenerate:
    def test_all_zero_couplings_fix_initial_state(self):
        sch = CouplingSchedule(steps=[StepCoupling(0, 0)] * 4)
        out = to_statevector(sequential_generate(sch, 4))
        expected = np.zeros(32)
        expected[0] = 1.0
        assert np.allclose(out, expected)

    def test_single_step_matches_dense_exponential(self):
        sch = CouplingSchedule(steps=[StepCoupling(0.8, 0.8)])
        out = to_statevector(sequential_generate(sch, 1))
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
        assert abs(np.linalg.norm(to_statevector(sequential_generate(sch, 3))) - 1.0) < 1e-12

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


@st.composite
def target_chains(draw):
    """A normalized chain of 1..7 qubits with random ragged edge sites."""
    n = draw(st.integers(1, 7))
    sites = draw(ragged_sites(n + 2))
    # the two outer sites only lend random edge vectors, folded into the edge sites
    bra, ket, sites = sites[0][1, 0, :], sites[-1][0, :, 0], sites[1:-1]
    sites[0] = np.einsum("l,ilr->ir", bra.conj(), sites[0])[:, None, :]
    sites[-1] = np.einsum("ilr,r->il", sites[-1], ket)[:, :, None]
    chain = MatrixProductState(sites=sites)
    chain.sites[0] = chain.sites[0] / norm(chain)
    return chain


def schedule_of(params, n, aux):
    """The schedule of a flat parameter vector: per step (h1, h2), then the
    ancilla and the qubit angles when ``aux``."""
    rows = params.reshape(n, -1)
    return CouplingSchedule(
        steps=[StepCoupling(h1, h2) for h1, h2 in rows[:, :2]],
        aux_enabled=aux,
        aux_qubit=rows[:, 5:] if aux else None,
        aux_ancilla=rows[:, 2:5] if aux else None,
    )


class TestChainOverlap:
    """The ancilla vector ``w`` contracted on the chain against dense oracles."""

    @settings(max_examples=200, deadline=None)
    @given(target_chains(), st.booleans(), st.integers(0, 2**32 - 1))
    def test_cost_matches_dense_contraction(self, target, aux, seed):
        engine = _CostEngine(target, aux)
        params = np.random.default_rng(seed).uniform(-np.pi, np.pi, engine.param_count())
        generated = sequential_generate(schedule_of(params, engine.n, aux), engine.n)
        joint = to_statevector(generated).reshape(2, -1)
        w = joint @ to_statevector(target).conj()
        cost = engine.cost_and_grad(params)[0]
        assert abs(cost - 2.0 * (1.0 - np.linalg.norm(w))) <= 1e-13

    def test_optimal_phi_final_beats_sampled_ancilla_vectors(self):
        rng = np.random.default_rng(6)
        target = random_state(rng, 3)
        res = optimize_schedule(
            from_statevector(target), 3, aux=True, restarts=1, seed=6, max_sweeps=1,
            inner_maxfev=5,
        )
        joint = to_statevector(res.generated).reshape(2, -1)
        samples = rng.standard_normal((10_000, 2)) + 1j * rng.standard_normal((10_000, 2))
        samples /= np.linalg.norm(samples, axis=1, keepdims=True)
        probe = np.abs(samples.conj() @ joint @ target.conj())
        assert np.all(probe <= res.fidelity + 1e-12)
        got = abs(res.optimal_phi_final.conj() @ joint @ target.conj())
        assert abs(got - res.fidelity) < 1e-12

    def test_invariant_under_final_ancilla_rotation(self):
        rng = np.random.default_rng(7)
        engine = _CostEngine(from_statevector(random_state(rng, 3)), True)
        sites = _chain_sites(engine.columns(rng.uniform(-np.pi, np.pi, engine.param_count())))
        _, w0 = engine.right_pass(sites)
        for _ in range(5):
            u = euler_zyz(rng.uniform(0, 2 * np.pi, 3))
            rotated = sites.copy()
            rotated[0] = u @ sites[0]  # the last step's ancilla output
            _, w1 = engine.right_pass(rotated)
            assert np.max(np.abs(w1 - u @ w0)) < 1e-12
            assert abs(np.linalg.norm(w1) - np.linalg.norm(w0)) < 1e-12


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
        engine = _CostEngine(from_statevector(random_state(rng, n)), aux)
        return engine, rng.uniform(-np.pi, np.pi, engine.param_count())

    @pytest.mark.parametrize("n", [3, 5])
    @AUX
    def test_full_gradient_matches_finite_differences(self, aux, n):
        engine, params = self.engine_and_params(aux, n)
        _, grad = engine.cost_and_grad(params)
        fd = central_difference(lambda x: engine.cost_and_grad(x)[0], params)
        assert np.max(np.abs(grad - fd)) < 1e-7

    @AUX
    def test_gradient_path_uses_the_step_gate(self, aux):
        rng = np.random.default_rng(8)
        row = np.concatenate([rng.uniform(-np.pi, np.pi, 2), rng.uniform(0.0, 2.0 * np.pi, 6)])
        row = row if aux else row[:2]
        c, dc = _step_columns(row, jac=True)
        assert np.max(np.abs(c - _step_columns(row))) <= 1e-14
        assert dc.shape == (row.size, 4, 2)

    @AUX
    def test_batched_step_gates_match_per_step_builds(self, aux):
        # C = U (x (x) |0>) and its derivatives against dense per-step
        # builds, for ancilla states x of rank 1 and 2
        rng = np.random.default_rng(11)
        n = 4
        rows = np.hstack([
            rng.uniform(-np.pi, np.pi, (n, 2)), rng.uniform(0.0, 2.0 * np.pi, (n, 6)),
        ])
        rows = rows if aux else rows[:, :2]
        half_z = -0.5j * PAULI[3]
        for rdim in (1, 2):
            x = random_columns(rng, 2, rdim)
            c, dc = _step_columns(rows, x, jac=True)
            assert c.shape == (n, 4, rdim) and dc.shape == (n, rows.shape[1], 4, rdim)
            for k, row in enumerate(rows):
                ref_u = step_unitary(row)
                entangler = step_unitary(row[:2])
                ref_du = [-1j * g @ ref_u for g in _XXZ_TERMS]
                if aux:
                    angles = row[2:5], row[5:]
                    rots = [euler_zyz(a) for a in angles]
                    jacs = [
                        [0.5 * euler_zyz([a[0] + np.pi, a[1], a[2]]), half_z @ r, r @ half_z]
                        for a, r in zip(angles, rots)
                    ]
                    ref_du += [entangler @ np.kron(d, rots[1]) for d in jacs[0]]
                    ref_du += [entangler @ np.kron(rots[0], d) for d in jacs[1]]
                assert np.max(np.abs(c[k] - ref_u[:, 0::2] @ x)) <= 1e-14
                assert np.max(np.abs(dc[k] - np.array(ref_du)[:, :, 0::2] @ x)) <= 1e-14
            assert np.array_equal(_step_columns(rows, x), c)
        # the default ancilla input is the identity: the columns |a_in, 0>
        c = _step_columns(rows)
        for k, row in enumerate(rows):
            assert np.max(np.abs(c[k] - step_unitary(row)[:, 0::2])) <= 1e-14

    def test_zero_overlap_gives_zero_gradient(self):
        # XXZ without aux keeps |0...0>, which the |+> cloner state misses
        engine = _CostEngine(gm_chain(GMSpec(2, KET_PLUS)), False)
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
        assert abs(res.cost_history[-1] - 2 * (1 - res.fidelity)) <= 1e-12
        # the reported schedule regenerates the reported state
        regen = to_statevector(sequential_generate(res.schedule, 3))
        assert np.max(np.abs(regen - to_statevector(res.generated))) < 1e-12

    def test_exact_preparation_reports_fidelity_at_most_one(self):
        # this restart reaches the target to rounding; unclamped, F - 1 = 2.2e-16
        target = gm_state(GMSpec(2, KET_PLUS))
        res = optimize_schedule(
            target, 3, aux=True, restarts=1, seed=3, max_sweeps=60, inner_maxfev=300
        )
        assert 1.0 - 1e-6 <= res.fidelity <= 1.0

    def test_result_rejects_fidelity_out_of_range(self):
        with pytest.raises(ValueError, match="fidelity out of range"):
            SynthesisResult(
                generated=np.zeros(16), fidelity=1.5,
                optimal_phi_final=np.zeros(2), iterations=0,
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
        res = optimize_schedule(gm_chain(GMSpec(2, KET_PLUS)), 3, aux=False, seed=0)
        assert 1.0 - res.fidelity == 1.0
        assert res.converged is False

    def test_degenerate_run_on_decomposed_target_is_not_converged(self):
        # the SVD of the dense target leaves ~1e-16 where the chain has exact
        # zeros, so F is not exactly 0; the run still never leaves its start
        res = optimize_schedule(gm_state(GMSpec(2)), 3, aux=False, seed=0)
        assert res.fidelity <= 1e-15
        assert res.iterations == 0
        assert res.converged is False

    def test_synthesis_builds_no_dense_state(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense state built")

        for name in (
            "seqclone.mps.to_statevector",
            "seqclone.cloning.gm_state",
            "seqclone.sequential.from_statevector",
        ):
            monkeypatch.setattr(name, refuse)
        m = 11
        res = optimize_schedule(
            gm_chain(GMSpec(m)), 2 * m - 1, aux=True, restarts=1, seed=1,
            max_sweeps=1, inner_maxfev=3,
        )
        assert res.generated.n_qubits == 2 * m and res.generated.max_bond == 2
        floor = 1.0 - math.sqrt(2 * (2 * m - 1) / (m * (m + 1)))
        assert 1.0 - res.fidelity >= floor - 1e-10

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
        res = descend(target, 3, restarts=1, seed=3, max_sweeps=60, inner_maxfev=300)
        assert len(results) == 1
        assert res.iterations == results[0].nit == len(res.cost_history) - 1
        assert results[0].status == 0 and "ftol" in results[0].message
        assert 1.0 - res.fidelity <= 1e-6
        descend(target, 3, restarts=3, seed=3, max_sweeps=2)
        assert len(results) == 4

    def test_spent_budget_is_not_converged(self):
        target = gm_state(GMSpec(2, KET_PLUS))
        res = descend(target, 3, restarts=1, seed=3, max_sweeps=1, inner_maxfev=1)
        assert res.converged is False
        assert res.iterations == len(res.cost_history) - 1

    def test_zero_sweep_tol_runs_until_the_cost_stops_falling(self, monkeypatch):
        results = self.counting_minimize(monkeypatch)
        target = gm_state(GMSpec(3, KET_PLUS))
        res = descend(target, 5, restarts=1, seed=5, max_sweeps=60, sweep_tol=0.0)
        (run,) = results
        history = res.cost_history
        # no iteration that lowered the cost stopped the run, nor the budget:
        # it ends on the ftol test at the first iteration that lowers nothing
        assert run.status == 0 and "ftol" in run.message
        assert all(b < a for a, b in zip(history[:-2], history[1:-1]))
        assert history[-1] >= history[-2]
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


def random_columns(rng, rows, cols):
    """A ``rows x cols`` matrix with orthonormal columns."""
    q, _ = np.linalg.qr(random_complex(rng, rows, cols))
    return q


INPUTS = [KET_PLUS, KET_ZERO, KET_ONE, PureQubit(0.6, 0.8j)]


class TestConstructive:
    """The step-by-step route: the cap-2 chain fitted one step at a time."""

    @pytest.mark.parametrize("rdim", [1, 2])
    def test_step_gradient_matches_finite_differences(self, rdim):
        # the gradient of 1/2 ||C - (W (x) I) v||^2 at the optimal W is
        # -Re tr(W^H dK); a transposed dK fails this for rdim = 2
        rng = np.random.default_rng(30 + rdim)
        cost = _StepCost(random_complex(rng, 4, rdim), random_columns(rng, 2, rdim))
        for _ in range(3):
            params = np.concatenate([rng.uniform(-np.pi, np.pi, 2), rng.uniform(0, 2 * np.pi, 6)])
            _, grad = cost(params)
            fd = central_difference(lambda x: cost(x)[0], params)
            assert np.max(np.abs(grad - fd)) < 1e-8

    @pytest.mark.parametrize("rdim", [1, 2])
    def test_step_columns_are_the_step_gates(self, rdim):
        # C[:, r] = U (x[:, r] (x) |0>), and the residual is r - ||K||_*
        rng = np.random.default_rng(40 + rdim)
        v, x = random_columns(rng, 4, rdim), random_columns(rng, 2, rdim)
        params = rng.uniform(0, 2 * np.pi, 8)
        residual, _, w = _StepCost(v, x).evaluate(params)
        u = step_unitary(params)
        cols = u[:, 0::2] @ x
        k = cols.reshape(2, -1) @ v.reshape(2, -1).conj().T
        gauged = (w @ v.reshape(2, -1)).reshape(4, -1)
        assert abs(residual - 0.5 * np.linalg.norm(cols - gauged) ** 2) <= 1e-14
        assert abs(residual - (rdim - np.linalg.svd(k, compute_uv=False).sum())) <= 1e-13

    def test_polar_factor_matches_svd(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            k = random_complex(rng, 2, 2)
            u, s, vh = np.linalg.svd(k)
            w, nuclear = _polar(k)
            assert abs(nuclear - s.sum()) <= 1e-13
            assert np.max(np.abs(w - u @ vh)) <= 1e-13

    def test_polar_factor_of_rank_one_matrix(self):
        # the padded last step: K = a b^H has one singular value, and any
        # phase on the orthogonal complement gives a polar factor
        rng = np.random.default_rng(51)
        for _ in range(20):
            a, b = random_complex(rng, 2, 1), random_complex(rng, 2, 1)
            k = a @ b.conj().T
            u, s, vh = np.linalg.svd(k)
            w, nuclear = _polar(k)
            assert abs(nuclear - s[0]) <= 1e-13
            assert np.max(np.abs(w.conj().T @ w - np.eye(2))) <= 1e-13
            assert np.max(np.abs(w @ vh[0].conj() - u[:, 0])) <= 1e-13
            assert abs(np.trace(w.conj().T @ k) - nuclear) <= 1e-13
        w, nuclear = _polar(np.zeros((2, 2), dtype=complex))
        assert nuclear == 0.0 and np.array_equal(w, np.eye(2))

    def test_fit_step_reaches_a_reachable_isometry(self):
        # columns of a step gate are reachable: the fit gets them back to 1e-20
        rng = np.random.default_rng(52)
        x = random_columns(rng, 2, 2)
        row = np.concatenate([rng.uniform(-1, 1, 2), rng.uniform(0, 2 * np.pi, 6)])
        v = step_unitary(row)[:, 0::2] @ x
        w = random_columns(rng, 2, 2)
        params, residual, gauge, iterations = fit_step((w @ v.reshape(2, -1)).reshape(4, 2), x)
        assert residual <= 1e-20 and iterations > 0
        cols = step_unitary(params)[:, 0::2] @ x
        assert np.max(np.abs(cols - (gauge @ w @ v.reshape(2, -1)).reshape(4, 2))) <= 1e-9

    def test_warm_start_keeps_the_pair_input(self):
        # R_a' = R_a W_before W_after^H: on the ancilla states W_after the
        # re-expressed row gives the previous step's columns on W_before, up
        # to the global phase that the polar gauge takes up
        rng = np.random.default_rng(56)
        for _ in range(20):
            row = np.concatenate([rng.uniform(-np.pi, np.pi, 2), rng.uniform(0, 2 * np.pi, 6)])
            before, after = random_columns(rng, 2, 2), random_columns(rng, 2, 2)
            warm = _warm_start(row, before, after)
            assert np.array_equal(warm[:2], row[:2]) and np.array_equal(warm[5:], row[5:])
            old, new = _step_columns(row, before), _step_columns(warm, after)
            assert TestEuler.phase_gap(new, old) <= 1e-15

    def test_fit_starts_from_the_given_row(self, monkeypatch):
        # a start at the answer ends at once; without one the fit takes its
        # seed's deterministic fallback starts, and no generator is used
        rng = np.random.default_rng(57)
        x = random_columns(rng, 2, 2)
        row = np.concatenate([rng.uniform(-1, 1, 2), rng.uniform(0, 2 * np.pi, 6)])
        v = step_unitary(row)[:, 0::2] @ x
        monkeypatch.setattr(np.random, "default_rng", None)
        params, _, _, iterations = fit_step(v, x, start=row)
        assert iterations == 0 and np.array_equal(params, row)
        cold = [fit_step(v, x, seed=s) for s in (0, 0, 1)]
        assert np.array_equal(cold[0][0], cold[1][0])
        assert not np.array_equal(cold[0][0], cold[2][0])
        assert all(res <= 1e-20 for _, res, _, _ in cold)

    @pytest.mark.parametrize("qubit", INPUTS, ids=["plus", "zero", "one", "complex"])
    def test_reaches_the_bond_two_optimum(self, qubit):
        for m in range(2, 9):
            spec = GMSpec(m, qubit)
            res = optimize_schedule(gm_chain(spec), 2 * m - 1, aux=True, restarts=1, seed=0)
            _, report = compress(gm_mps(spec), 2, METHOD_VARIATIONAL_SEEDED)
            assert abs((1.0 - res.fidelity) - report.error) <= 1e-12
            assert res.step_residuals.shape == (2 * m - 1,)
            assert res.step_residuals.max() <= 1e-12
            assert res.converged is True
            assert res.cost_history == [pytest.approx(2.0 * (1.0 - res.fidelity), abs=1e-15)]

    @pytest.mark.parametrize("qubit, cold", [(KET_PLUS, 5040), (KET_ZERO, 3129)],
                             ids=["plus", "zero"])
    def test_ninety_nine_qubits(self, qubit, cold):
        # the global search stops at F = 4.5e-17 on |+>: its random start sees
        # no gradient; fits from cold random starts, stopped at 1e-20, took
        # `cold` iterations, and on |0> one stalled at 3.9e-13
        spec = GMSpec(50, qubit)
        start = time.perf_counter()
        res = optimize_schedule(gm_chain(spec), 99, aux=True, restarts=1)
        elapsed = time.perf_counter() - start
        _, report = compress(gm_mps(spec), 2, METHOD_VARIATIONAL_SEEDED)
        assert res.step_residuals.max() <= _STEP_TOL
        assert res.step_residuals.max() <= 1e-20
        assert res.iterations < cold // 2
        assert res.converged is True
        assert abs((1.0 - res.fidelity) - report.error) <= 1e-12
        assert elapsed < 5.0

    def test_residuals_certify_the_chain(self):
        # 1 - F against the chain is at most (sum_k sqrt(residual_k))^2, also
        # where the class falls short, as on a random complex chain
        rng = np.random.default_rng(53)
        for target in (from_statevector(random_state(rng, 5)), gm_chain(GMSpec(4))):
            chain = sequential._bond_two_chain(target)
            schedule, residuals, _ = schedule_from_chain(chain, seed=2)
            cost, _ = _CostEngine(chain, True).cost_and_grad(sequential._params(schedule))
            assert cost / 2.0 <= np.sqrt(residuals).sum() ** 2 + 1e-15

    def test_random_target_falls_back_and_is_never_worse(self, monkeypatch):
        # a random complex bond-2 chain is out of the class's reach: the
        # constructed schedule joins the random restarts as one more start
        target = from_statevector(random_state(np.random.default_rng(54), 3))
        budget = dict(max_sweeps=2, inner_maxfev=50)
        restarts_alone = descend(target, 3, restarts=2, seed=4, **budget)
        starts = []
        real = sequential._restarts

        def recorded(engine, runs, *args):
            starts.extend(runs)
            return real(engine, runs, *args)

        monkeypatch.setattr(sequential, "_restarts", recorded)
        res = optimize_schedule(target, 3, aux=True, restarts=2, seed=4, **budget)
        assert res.step_residuals.max() > _STEP_TOL
        assert len(starts) == 3
        engine = _CostEngine(target, True)
        for drawn, start in zip(_random_starts(engine, 2, 4), starts):
            assert np.array_equal(drawn, start)
        assert 1.0 - res.fidelity <= 1.0 - restarts_alone.fidelity
        assert res.iterations == len(res.cost_history) - 1

    def test_aux_off_has_no_constructive_route(self):
        res = optimize_schedule(gm_chain(GMSpec(2, KET_PLUS)), 3, aux=False, seed=0)
        assert res.step_residuals is None

    def test_schedule_from_chain_validation(self):
        with pytest.raises(ValueError, match="bond 2"):
            schedule_from_chain(from_statevector(random_state(np.random.default_rng(55), 5)))
        chain = gm_mps(GMSpec(2))
        chain.sites[1] = chain.sites[1] * 2.0
        with pytest.raises(CanonicalFormError, match="constructive synthesis"):
            schedule_from_chain(chain)
