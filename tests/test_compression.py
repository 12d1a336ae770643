"""Tests for bond-cap compression (truncation and variational sweeping)."""

import numpy as np
import pytest

from seqclone.cloning import GMSpec, KET_PLUS, PureQubit, gm_state
from seqclone.compression import (
    CompressionRequest,
    METHOD_SVD,
    METHOD_VARIATIONAL,
    METHOD_VARIATIONAL_SEEDED,
    _random_trial,
    compress,
    fidelity,
    regularization_scan,
    svd_truncate_mps,
    variational_compress,
)
from seqclone.errors import CanonicalFormError, ResourceLimitError, StructureError
from seqclone.mps import MatrixProductState, from_statevector, overlap, to_statevector


def random_state(rng, n):
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return v / np.linalg.norm(v)


def schmidt_weight_bound(v, n, cap):
    """Single-cut ceiling: no bond-``cap`` MPS exceeds this fidelity."""
    worst = 1.0
    for cut in range(1, n):
        s = np.linalg.svd(v.reshape(2**cut, -1), compute_uv=False)
        worst = min(worst, float(np.sum(s[:cap] ** 2)))
    return float(np.sqrt(worst))


class TestFidelity:
    def test_self(self):
        rng = np.random.default_rng(0)
        m = from_statevector(random_state(rng, 4))
        assert abs(fidelity(m, m) - 1.0) < 1e-12

    def test_orthogonal(self):
        a = from_statevector(np.array([1, 0], dtype=complex))
        b = from_statevector(np.array([0, 1], dtype=complex))
        assert fidelity(a, b) < 1e-14

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(1)
        v = random_state(rng, 5)
        a = from_statevector(v)
        b = from_statevector(np.exp(0.73j) * v)
        assert abs(fidelity(a, b) - 1.0) < 1e-10

    def test_rejects_mismatched_lengths(self):
        rng = np.random.default_rng(2)
        with pytest.raises(StructureError):
            fidelity(
                from_statevector(random_state(rng, 3)),
                from_statevector(random_state(rng, 4)),
            )

    def test_rejects_unnormalized(self):
        rng = np.random.default_rng(3)
        m = from_statevector(random_state(rng, 3))
        bad = m.copy()
        bad.sites[0] = bad.sites[0] * 2.0
        with pytest.raises(ValueError, match="normalized"):
            fidelity(m, bad)


class TestSvdTruncate:
    def test_cap_at_or_above_bond_is_identity(self):
        rng = np.random.default_rng(4)
        m = from_statevector(random_state(rng, 6))
        out, report = svd_truncate_mps(m, m.max_bond)
        assert report.fidelity == 1.0
        assert abs(overlap(m, out) - 1.0) < 1e-12

    def test_caps_all_bonds_and_normalizes(self):
        rng = np.random.default_rng(5)
        m = from_statevector(random_state(rng, 7))
        out, report = svd_truncate_mps(m, 3)
        assert out.max_bond <= 3
        assert abs(np.linalg.norm(to_statevector(out)) - 1.0) < 1e-10
        assert abs(report.fidelity - abs(overlap(m, out))) < 1e-12

    def test_error_monotone_in_cap(self):
        rng = np.random.default_rng(6)
        m = from_statevector(random_state(rng, 7))
        errors = [svd_truncate_mps(m, cap)[1].error for cap in (1, 2, 3, 4, 6, 8)]
        assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))

    def test_single_truncated_bond_hits_schmidt_optimum(self):
        # one bond above the cap: truncation must equal the analytic optimum
        rng = np.random.default_rng(7)
        bell_like = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        bell_like /= np.linalg.norm(bell_like)
        m = from_statevector(bell_like)
        _, report = svd_truncate_mps(m, 1)
        s = np.linalg.svd(bell_like.reshape(2, 2), compute_uv=False)
        assert abs(report.fidelity - s[0]) < 1e-12

    def test_rejects_zero_cap(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError):
            svd_truncate_mps(from_statevector(random_state(rng, 3)), 0)

    def test_rejects_non_canonical_target(self):
        rng = np.random.default_rng(18)
        m = from_statevector(random_state(rng, 4))
        m.sites[1] = m.sites[1] * 3.0
        m.sites[2] = m.sites[2] / 3.0
        with pytest.raises(CanonicalFormError, match="canonical"):
            svd_truncate_mps(m, 2)


class TestVariationalCompress:
    def test_full_bond_is_exact_seeded(self):
        rng = np.random.default_rng(9)
        m = from_statevector(random_state(rng, 5))
        _, report = compress(m, m.max_bond, METHOD_VARIATIONAL_SEEDED)
        assert report.error < 1e-10

    def test_full_bond_is_exact_unseeded(self):
        rng = np.random.default_rng(10)
        m = from_statevector(random_state(rng, 5))
        _, report = compress(m, m.max_bond, METHOD_VARIATIONAL, seed=3)
        assert report.error < 1e-10

    def test_sweep_errors_monotone(self):
        rng = np.random.default_rng(11)
        m = from_statevector(random_state(rng, 6))
        _, report = compress(m, 2, METHOD_VARIATIONAL, seed=4, max_sweeps=30)
        seq = report.sweep_errors
        assert len(seq) >= 1
        assert all(b <= a + 1e-12 for a, b in zip(seq, seq[1:]))

    def test_seeded_never_worse_than_truncation(self):
        rng = np.random.default_rng(12)
        for n in (5, 6, 7):
            m = from_statevector(random_state(rng, n))
            _, svd_rep = svd_truncate_mps(m, 2)
            _, var_rep = compress(m, 2, METHOD_VARIATIONAL_SEEDED, max_sweeps=40)
            assert var_rep.error <= svd_rep.error + 1e-12

    def test_achieves_single_cut_optimum_when_one_bond_matters(self):
        # for n = 4 at cap 2 the variational optimum meets the Schmidt bound
        rng = np.random.default_rng(13)
        v = random_state(rng, 4)
        m = from_statevector(v)
        _, report = compress(m, 2, METHOD_VARIATIONAL, seed=5, max_sweeps=200)
        bound = 1.0 - schmidt_weight_bound(v, 4, 2)
        assert report.error <= bound + 1e-6

    def test_output_normalized_and_capped(self):
        rng = np.random.default_rng(14)
        m = from_statevector(random_state(rng, 6))
        out, _ = compress(m, 2, METHOD_VARIATIONAL_SEEDED)
        assert out.max_bond <= 2
        assert abs(np.linalg.norm(to_statevector(out)) - 1.0) < 1e-10

    def test_dense_least_squares_oracle(self):
        """The sweep must land on the same fixed point as a dense solver.

        Oracle: identical initialization and sweep schedule, but every local
        solve is done by building the full design matrix (one dense chain
        contraction per local basis tensor) and calling lstsq.
        """
        rng = np.random.default_rng(15)
        n, cap = 6, 2
        v = random_state(rng, n)
        target = from_statevector(v, 0.0)

        seed = 21
        _, report = compress(
            target, cap, METHOD_VARIATIONAL, seed=seed, max_sweeps=120,
            convergence_tol=1e-14,
        )

        trial = _random_trial(n, cap, np.random.default_rng(seed))
        sites = trial.sites

        def dense_local_solve(k):
            two, lw, rw = sites[k].shape
            cols = []
            basis = MatrixProductState(sites=[s.copy() for s in sites])
            for idx in range(two * lw * rw):
                e = np.zeros(two * lw * rw)
                e[idx] = 1.0
                basis.sites[k] = e.reshape(two, lw, rw).astype(complex)
                cols.append(to_statevector(basis))
            a = np.stack(cols, axis=1)
            x, *_ = np.linalg.lstsq(a, v, rcond=None)
            sites[k] = x.reshape(two, lw, rw)
            return float(np.linalg.norm(v - a @ x) ** 2)

        err = np.inf
        for _ in range(120):
            before = err
            for k in list(range(n)) + list(range(n - 1, -1, -1)):
                err = dense_local_solve(k)
            if abs(before - err) < 1e-14:
                break

        # report errors are 1 - F; convert the oracle objective the same way
        chain = MatrixProductState(sites=sites)
        dense_f = abs(overlap(target, chain)) / np.sqrt(abs(overlap(chain, chain)))
        assert abs(report.error - (1.0 - dense_f)) < 1e-8

    def test_unseeded_cap4_lands_on_schmidt_floor(self):
        # random starts on which normal-equation solves meet singular Gram
        # matrices (seeds 3, 12) or undershoot the floor (seed 10)
        spec = GMSpec(7, KET_PLUS)
        floor = 1.0 - schmidt_weight_bound(gm_state(spec), spec.qubits, 4)
        for seed in (3, 10, 12):
            report = regularization_scan(spec, [4], [METHOD_VARIATIONAL], seed=seed)[0]
            assert floor - 1e-10 <= report.error <= floor + 1e-6

    def test_request_validation(self):
        rng = np.random.default_rng(16)
        m = from_statevector(random_state(rng, 3))
        with pytest.raises(ValueError):
            CompressionRequest(target=m, bond_cap=0)
        with pytest.raises(ValueError):
            CompressionRequest(target=m, bond_cap=1, max_sweeps=0)
        with pytest.raises(ValueError):
            CompressionRequest(target=m, bond_cap=1, convergence_tol=0.0)
        with pytest.raises(ValueError):
            CompressionRequest(target=m, bond_cap=1, method="bogus")
        with pytest.raises(ValueError):
            variational_compress(CompressionRequest(target=m, bond_cap=1, method=METHOD_SVD))

    def test_accepts_dense_target(self):
        rng = np.random.default_rng(17)
        v = random_state(rng, 4)
        _, report = variational_compress(
            CompressionRequest(target=v, bond_cap=4, method=METHOD_VARIATIONAL_SEEDED)
        )
        assert report.error < 1e-10

    def test_recanonicalizes_gauged_target(self):
        # scale-gauge two interior sites; the result must match the
        # compression of the properly canonical chain
        rng = np.random.default_rng(19)
        v = random_state(rng, 5)
        clean = from_statevector(v)
        gauged = clean.copy()
        gauged.sites[1] = gauged.sites[1] * 3.0
        gauged.sites[2] = gauged.sites[2] / 3.0
        gauged.canonical = False
        _, rep_clean = compress(clean, 2, METHOD_VARIATIONAL_SEEDED)
        _, rep_gauged = compress(gauged, 2, METHOD_VARIATIONAL_SEEDED)
        assert abs(rep_clean.error - rep_gauged.error) < 1e-9


class TestRegularizationScan:
    def test_row_count_and_grid(self):
        reports = regularization_scan(
            GMSpec(2, KET_PLUS), [2, 4], [METHOD_SVD, METHOD_VARIATIONAL_SEEDED]
        )
        assert len(reports) == 4
        assert {(r.bond_cap, r.method) for r in reports} == {
            (2, METHOD_SVD), (2, METHOD_VARIATIONAL_SEEDED),
            (4, METHOD_SVD), (4, METHOD_VARIATIONAL_SEEDED),
        }

    def test_cap_above_bond_gives_zero_error(self):
        reports = regularization_scan(GMSpec(2, KET_PLUS), [4], [METHOD_SVD])
        assert reports[0].error <= 1e-12

    def test_svd_error_monotone_in_cap(self):
        reports = regularization_scan(GMSpec(4, KET_PLUS), [2, 3, 4], [METHOD_SVD])
        errors = [r.error for r in reports]
        assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))

    def test_deterministic_for_fixed_seed(self):
        args = (GMSpec(3, KET_PLUS), [2], [METHOD_VARIATIONAL])
        r1 = regularization_scan(*args, seed=9)
        r2 = regularization_scan(*args, seed=9)
        assert r1[0].fidelity == r2[0].fidelity
        assert r1[0].sweep_errors == r2[0].sweep_errors

    @pytest.mark.parametrize("qubit", [KET_PLUS, PureQubit(0.6, 0.8j)], ids=["plus", "complex"])
    @pytest.mark.parametrize("m", range(2, 9))
    def test_truncation_error_is_closed_form_floor(self, m, qubit):
        # the clone/anticlone cut binds: keeping D of its Schmidt weights
        # leaves a fidelity sqrt(D(2M - D + 1) / (M(M + 1)))
        caps = list(range(1, min(3, m) + 1))
        reports = regularization_scan(GMSpec(m, qubit), caps, [METHOD_SVD])
        for d, report in zip(caps, reports):
            floor = 1.0 - np.sqrt(d * (2 * m - d + 1) / (m * (m + 1)))
            assert abs(report.error - floor) < 1e-12

    def test_resource_cap(self):
        with pytest.raises(ResourceLimitError):
            regularization_scan(GMSpec(9, KET_PLUS), [2], [METHOD_SVD])

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            regularization_scan(GMSpec(2, KET_PLUS), [2], ["bogus"])
