"""Tests for cloner-output state construction."""

import numpy as np
import pytest

from seqclone.cloning import (
    GMSpec,
    KET_ONE,
    KET_PLUS,
    KET_ZERO,
    PureQubit,
    clone_fidelity_oracle,
    gm_coefficients,
    gm_mps,
    gm_state,
)
from seqclone.linalg import RANK_RTOL
from seqclone.mps import from_statevector, to_statevector

from gm_dense import dense_clone_fidelity, dense_gm_state, symmetric_state


def random_qubit(rng):
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    a /= np.linalg.norm(a)
    return PureQubit(a[0], a[1])


class TestPureQubit:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            PureQubit(1.0, 1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("nan"))])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="normalized"):
            PureQubit(bad, 0.0)

    def test_vector(self):
        assert np.allclose(KET_PLUS.vector, [1 / np.sqrt(2)] * 2)


class TestCoefficients:
    def test_single_clone(self):
        assert np.allclose(gm_coefficients(1), [1.0])

    def test_two_clones(self):
        assert np.allclose(
            gm_coefficients(2), [np.sqrt(2 / 3), np.sqrt(1 / 3)], atol=1e-12
        )

    @pytest.mark.parametrize("m", [2, 3, 7, 12])
    def test_unit_square_sum(self, m):
        assert abs(np.sum(gm_coefficients(m) ** 2) - 1.0) < 1e-12

    @pytest.mark.parametrize("m", [2, 5, 9])
    def test_strictly_decreasing(self, m):
        assert np.all(np.diff(gm_coefficients(m)) < 0)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            gm_coefficients(0)


class TestSymmetricState:
    def test_single_arrangement(self):
        v = symmetric_state(2, KET_ZERO, 0, KET_ONE)
        expected = np.zeros(4)
        expected[0] = 1.0
        assert np.allclose(v, expected)

    def test_two_arrangements(self):
        v = symmetric_state(1, KET_ZERO, 1, KET_ONE)
        assert np.allclose(v, np.array([0, 1, 1, 0]) / np.sqrt(2))

    def test_permutation_invariance(self):
        v = symmetric_state(2, KET_ZERO, 1, KET_ONE).reshape(2, 2, 2)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        for axes in [(1, 0, 2), (0, 2, 1), (2, 1, 0)]:
            assert np.allclose(v, np.transpose(v, axes), atol=1e-12)

    def test_general_orthogonal_pair(self):
        rng = np.random.default_rng(0)
        q = random_qubit(rng)
        perp = PureQubit(-np.conj(q.beta), np.conj(q.alpha))
        v = symmetric_state(2, q, 2, perp).reshape((2,) * 4)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        assert np.allclose(v, np.transpose(v, (3, 1, 2, 0)), atol=1e-12)

    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValueError, match="orthogonal"):
            symmetric_state(1, KET_ZERO, 1, KET_PLUS)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            symmetric_state(0, KET_ZERO, 0, KET_ONE)


class TestGmState:
    def test_single_clone_is_input(self):
        rng = np.random.default_rng(1)
        q = random_qubit(rng)
        assert np.allclose(gm_state(GMSpec(1, q)), q.vector, atol=1e-12)

    def test_two_clones_of_zero(self):
        # sqrt(2/3)|00>|1> + sqrt(1/3) (|01>+|10>)/sqrt(2) |0>
        v = gm_state(GMSpec(2, KET_ZERO))
        expected = np.zeros(8)
        expected[0b001] = np.sqrt(2 / 3)
        expected[0b010] = expected[0b100] = np.sqrt(1 / 6)
        assert np.allclose(v, expected, atol=1e-12)

    def test_two_clones_of_one_mirror(self):
        v = gm_state(GMSpec(2, KET_ONE))
        expected = np.zeros(8)
        expected[0b110] = np.sqrt(2 / 3)
        expected[0b011] = expected[0b101] = np.sqrt(1 / 6)
        assert np.allclose(v, expected, atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        for m in (2, 4):
            q = random_qubit(rng)
            combo = q.alpha * gm_state(GMSpec(m, KET_ZERO)) + q.beta * gm_state(
                GMSpec(m, KET_ONE)
            )
            assert np.allclose(gm_state(GMSpec(m, q)), combo, atol=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_normalized_for_random_inputs(self, m):
        rng = np.random.default_rng(m)
        for _ in range(5):
            v = gm_state(GMSpec(m, random_qubit(rng)))
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_normalized_at_largest_supported_size(self):
        # 8 clones, 15 qubits: the largest register the dense path serves
        rng = np.random.default_rng(88)
        for _ in range(20):
            v = gm_state(GMSpec(8, random_qubit(rng)))
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_block_permutation_symmetry(self):
        rng = np.random.default_rng(3)
        m = 3
        v = gm_state(GMSpec(m, random_qubit(rng))).reshape((2,) * 5)
        # clones on axes 0..2, anticlones on axes 3..4
        assert np.allclose(v, np.swapaxes(v, 0, 2), atol=1e-12)
        assert np.allclose(v, np.swapaxes(v, 1, 2), atol=1e-12)
        assert np.allclose(v, np.swapaxes(v, 3, 4), atol=1e-12)


class TestCloneFidelityOracle:
    def test_single_clone_perfect(self):
        rng = np.random.default_rng(4)
        assert abs(clone_fidelity_oracle(GMSpec(1, random_qubit(rng)), 1) - 1.0) < 1e-12

    def test_two_clone_value(self):
        assert abs(clone_fidelity_oracle(GMSpec(2, KET_PLUS), 1) - 5 / 6) < 1e-12

    def test_index_independence(self):
        rng = np.random.default_rng(5)
        spec = GMSpec(3, random_qubit(rng))
        vals = [clone_fidelity_oracle(spec, i) for i in (1, 2, 3)]
        assert max(vals) - min(vals) < 1e-12

    def test_universality(self):
        rng = np.random.default_rng(6)
        vals = [
            clone_fidelity_oracle(GMSpec(2, random_qubit(rng)), 1) for _ in range(20)
        ]
        assert max(vals) - min(vals) < 1e-10

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            clone_fidelity_oracle(GMSpec(2, KET_PLUS), 3)
        with pytest.raises(ValueError):
            clone_fidelity_oracle(GMSpec(2, KET_PLUS), 0)


def _cross_check_specs():
    rng = np.random.default_rng(7)
    inputs = {"0": KET_ZERO, "1": KET_ONE, "+": KET_PLUS,
              "r1": random_qubit(rng), "r2": random_qubit(rng)}
    return [
        pytest.param(GMSpec(m, q), id=f"M{m}-{label}")
        for m in range(1, 9)
        for label, q in inputs.items()
    ]


class TestChainAgainstDenseOracle:
    """The counter chain against the kron-built dense state of ``gm_dense``."""

    @pytest.fixture(params=_cross_check_specs(), scope="class")
    def case(self, request):
        spec = request.param
        return spec, dense_gm_state(spec)

    def test_bond_profile(self, case):
        spec, oracle = case
        expected = from_statevector(oracle, RANK_RTOL).bond_dimensions
        assert gm_mps(spec).bond_dimensions == expected

    def test_left_canonical(self, case):
        chain = gm_mps(case[0])
        assert chain.canonical
        assert chain.left_orthonormality_defect() < 1e-12

    def test_amplitudes(self, case):
        spec, oracle = case
        assert np.max(np.abs(to_statevector(gm_mps(spec)) - oracle)) < 1e-12
        assert np.max(np.abs(gm_state(spec) - oracle)) < 1e-12

    def test_exact_zeros(self, case):
        spec, oracle = case
        v = gm_state(spec)
        assert np.array_equal(v == 0, oracle == 0)
        if spec.clones <= 3:
            assert np.array_equal(v, oracle)

    def test_clone_fidelity(self, case):
        spec, _ = case
        for idx in range(1, spec.clones + 1):
            assert abs(clone_fidelity_oracle(spec, idx) - dense_clone_fidelity(spec, idx)) < 1e-12
