"""Tests for bond-cap compression (truncation and variational sweeping)."""

import numpy as np
import pytest

from seqclone import compression
from seqclone.cloning import GMSpec, KET_PLUS, PureQubit, gm_mps, gm_state
from seqclone.compression import (
    METHOD_SVD,
    METHOD_VARIATIONAL,
    METHOD_VARIATIONAL_SEEDED,
    _random_trial,
    compress,
    regularization_scan,
    svd_truncate_mps,
    variational_compress,
)
from seqclone.errors import CanonicalFormError, ResourceLimitError
from seqclone.mps import MatrixProductState, from_statevector, overlap, to_statevector


def random_state(rng, n):
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return v / np.linalg.norm(v)


def nan_chain():
    """The n = 5 cloner chain with one site multiplied by NaN."""
    chain = gm_mps(GMSpec(3))
    chain.sites[2] = chain.sites[2] * np.nan
    return chain


def schmidt_weight_bound(v, n, cap):
    """Single-cut ceiling: no bond-``cap`` MPS exceeds this fidelity."""
    worst = 1.0
    for cut in range(1, n):
        s = np.linalg.svd(v.reshape(2**cut, -1), compute_uv=False)
        worst = min(worst, float(np.sum(s[:cap] ** 2)))
    return float(np.sqrt(worst))


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

    def test_rejects_non_finite_target(self):
        # at a cap above the chain's bonds the target is returned with F = 1
        with pytest.raises(CanonicalFormError):
            svd_truncate_mps(nan_chain(), 3)

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
            compress(m, 0, METHOD_VARIATIONAL_SEEDED)
        with pytest.raises(ValueError):
            compress(m, 1, METHOD_VARIATIONAL_SEEDED, max_sweeps=0)
        for tol in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="convergence_tol"):
                variational_compress(m, 1, convergence_tol=tol)
        with pytest.raises(ValueError):
            compress(m, 1, "bogus")
        with pytest.raises(ValueError):
            variational_compress(m, 1, method=METHOD_SVD)

    def test_rejects_non_finite_target(self):
        # a NaN norm must fail the check; a clamp to 1 would hide it as F = 1
        with pytest.raises(ValueError, match="norm"):
            compress(nan_chain(), 2, METHOD_VARIATIONAL)

    def test_recanonicalizes_gauged_target(self):
        # scale-gauge two interior sites; the result must match the
        # compression of the properly canonical chain
        rng = np.random.default_rng(19)
        v = random_state(rng, 5)
        clean = from_statevector(v)
        gauged = clean.copy()
        gauged.sites[1] = gauged.sites[1] * 3.0
        gauged.sites[2] = gauged.sites[2] / 3.0
        _, rep_clean = compress(clean, 2, METHOD_VARIATIONAL_SEEDED)
        _, rep_gauged = compress(gauged, 2, METHOD_VARIATIONAL_SEEDED)
        assert abs(rep_clean.error - rep_gauged.error) < 1e-9

    def test_accepts_target_normalized_to_its_tolerance(self):
        # norm 1 + 8e-11 passes the 1e-10 norm check, but the last site's
        # Gram defect, 1.6e-10, is above CANONICAL_TOL until recanonicalized
        rng = np.random.default_rng(20)
        v = random_state(rng, 4)
        target = from_statevector(v)
        target.sites[-1] = target.sites[-1] * (1.0 + 8e-11)
        assert not target.canonical
        _, rep = compress(target, 2, METHOD_VARIATIONAL_SEEDED)
        _, rep_exact = compress(from_statevector(v), 2, METHOD_VARIATIONAL_SEEDED)
        assert abs(rep.error - rep_exact.error) < 1e-9

    @pytest.mark.parametrize("cap", [2, 8])
    def test_seeded_run_measures_the_canonical_form_once(self, monkeypatch, cap):
        # the truncation that seeds the sweep trusts the check made just before it
        scans, real = [], MatrixProductState.left_orthonormality_defect

        def counted(chain):
            scans.append(chain)
            return real(chain)

        target = gm_mps(GMSpec(4))
        monkeypatch.setattr(MatrixProductState, "left_orthonormality_defect", counted)
        compress(target, cap, METHOD_VARIATIONAL_SEEDED)
        assert len(scans) == 1
        svd_truncate_mps(target, cap)
        assert len(scans) == 2


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

    def test_truncates_once_per_cap(self, monkeypatch):
        # the truncation row and the seed of the seeded row are one run; the
        # seeded run truncates through _truncate, past the public check
        calls = []
        real = compression._truncate

        def counted(target, cap):
            calls.append(cap)
            return real(target, cap)

        monkeypatch.setattr(compression, "_truncate", counted)
        caps = [1, 2, 3, 4, 6]
        reports = regularization_scan(GMSpec(4), caps, [METHOD_SVD, METHOD_VARIATIONAL_SEEDED])
        assert calls == caps
        assert [r.method for r in reports] == [METHOD_SVD, METHOD_VARIATIONAL_SEEDED] * len(caps)

    @pytest.mark.parametrize("methods", [
        [METHOD_SVD, METHOD_VARIATIONAL_SEEDED, METHOD_VARIATIONAL],
        [METHOD_VARIATIONAL, METHOD_VARIATIONAL_SEEDED, METHOD_SVD],
        [METHOD_SVD],
    ], ids=["svd-first", "svd-last", "svd-alone"])
    def test_rows_equal_separate_calls(self, methods):
        spec, caps = GMSpec(5, PureQubit(0.6, 0.8j)), [1, 2, 3, 4, 6]
        target = gm_mps(spec)
        reports = regularization_scan(spec, caps, methods, seed=4)
        expected = [
            svd_truncate_mps(target, cap)[1] if method == METHOD_SVD
            else variational_compress(target, cap, method, seed=4)[1]
            for cap in caps
            for method in methods
        ]
        # dataclass equality: every field, float for float, sweep errors and
        # the seeded row's seed report included
        assert reports == expected

    def test_resource_cap(self):
        with pytest.raises(ResourceLimitError):
            regularization_scan(GMSpec(51, KET_PLUS), [2], [METHOD_SVD])

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            regularization_scan(GMSpec(2, KET_PLUS), [2], ["bogus"])


class _EinsumWorkspace:
    """Reference sweep kernel, sharing no code with the package's: every
    contraction by ``einsum``, every site projected on every visit, and
    ``numpy.linalg.qr`` with the ``R`` factor carried into the next site.
    Same interface as ``compression._SweepWorkspace``: ``error`` after set-up
    is the starting projection's, ``sweep()`` and ``sites()``."""

    def __init__(self, target_sites, trial_sites):
        self.ts = target_sites
        self.xs = list(trial_sites)
        self.n = len(self.xs)
        one = np.ones((1, 1), dtype=np.complex128)
        self.lmix = [one] * self.n
        self.rmix = [one] * self.n
        for k in range(self.n - 1, 0, -1):
            self._extend_rmix(k)
        x = self._project(0)
        self.error = 1.0 - float(np.vdot(x, x).real)

    def _project(self, k):
        return np.einsum("lt,itu,ru->ilr", self.lmix[k], self.ts[k], self.rmix[k], optimize=True)

    def _extend_lmix(self, k):
        self.lmix[k + 1] = np.einsum("ilr,lt,itu->ru", self.xs[k].conj(), self.lmix[k], self.ts[k])

    def _extend_rmix(self, k):
        self.rmix[k - 1] = np.einsum("ilr,ru,itu->lt", self.xs[k].conj(), self.rmix[k], self.ts[k])

    def _update(self, k, step):
        x = self._project(k)
        self.xs[k] = x
        if 0 <= k + step < self.n:
            two, lw, rw = x.shape
            if step > 0:
                q, r = np.linalg.qr(x.reshape(two * lw, rw))
                self.xs[k] = q.reshape(two, lw, -1)
                self.xs[k + 1] = np.einsum("sr,irt->ist", r, self.xs[k + 1])
                self._extend_lmix(k)
            else:
                q, r = np.linalg.qr(x.transpose(1, 0, 2).reshape(lw, two * rw).conj().T)
                self.xs[k] = q.conj().T.reshape(-1, two, rw).transpose(1, 0, 2)
                self.xs[k - 1] = np.einsum("ilr,sr->ils", self.xs[k - 1], r.conj())
                self._extend_rmix(k)
        self.error = 1.0 - float(np.vdot(x, x).real)

    def sweep(self):
        for k in range(self.n):
            self._update(k, +1)
        for k in range(self.n - 1, -1, -1):
            self._update(k, -1)
        return self.error

    def sites(self):
        return self.xs


def _compress_scan_plan(seed, qubit=KET_PLUS):
    """The benchmark's compress-scan round: M = 2..8, truncation and seeded
    ALS at caps 2-4, unseeded ALS at caps 2-3; ALS reports keyed by point."""
    reports = {}
    for m in range(2, 9):
        for caps, methods in (
            ([2, 3, 4], [METHOD_SVD, METHOD_VARIATIONAL_SEEDED]),
            ([2, 3], [METHOD_VARIATIONAL]),
        ):
            for r in regularization_scan(GMSpec(m, qubit), caps, methods, seed=seed):
                if r.method != METHOD_SVD:
                    reports[(m, r.bond_cap, r.method)] = r
    return reports


def _random_bond4_runs():
    """Seeded and unseeded ALS at caps 2 and 3 of one random complex chain
    with bonds up to 4 (not canonical; the compression canonicalizes it)."""
    target = _random_trial(9, 4, np.random.default_rng(31))
    return {
        (cap, method): compress(target, cap, method, seed=5)[1]
        for cap in (2, 3)
        for method in (METHOD_VARIATIONAL, METHOD_VARIATIONAL_SEEDED)
    }


def _assert_same_runs(reports, reference):
    assert reports.keys() == reference.keys()
    for key, r in reports.items():
        ref = reference[key]
        assert (r.sweeps_used, r.converged) == (ref.sweeps_used, ref.converged), key
        assert abs(r.fidelity - ref.fidelity) <= 1e-14, key


class TestSweepKernel:
    def test_compress_scan_plan_pinned(self, monkeypatch):
        reports = _compress_scan_plan(seed=1)
        assert sum(r.sweeps_used for r in reports.values()) == 456
        assert sorted(key for key, r in reports.items() if not r.converged) == [
            (6, 2, METHOD_VARIATIONAL),
            (7, 2, METHOD_VARIATIONAL),
            (7, 3, METHOD_VARIATIONAL),
            (8, 2, METHOD_VARIATIONAL),
            (8, 3, METHOD_VARIATIONAL),
        ]
        monkeypatch.setattr(compression, "_SweepWorkspace", _EinsumWorkspace)
        _assert_same_runs(reports, _compress_scan_plan(seed=1))

    @pytest.mark.parametrize("runs", [
        lambda: _compress_scan_plan(seed=1, qubit=PureQubit(0.6, 0.8j)),
        _random_bond4_runs,
    ], ids=["complex-input-plan", "random-bond4-chain"])
    def test_matches_einsum_reference(self, monkeypatch, runs):
        reports = runs()
        monkeypatch.setattr(compression, "_SweepWorkspace", _EinsumWorkspace)
        _assert_same_runs(reports, runs())

    @pytest.mark.parametrize("qubit", [KET_PLUS, PureQubit(0.6, 0.8j)], ids=["plus", "complex"])
    def test_one_qubit_sweep_needs_no_qr(self, monkeypatch, qubit):
        # a one-site sweep only projects: the trial becomes the target itself,
        # already at the starting projection, so one sweep ends the run
        target = from_statevector(qubit.vector)

        def no_qr(*args):
            raise AssertionError("a one-site sweep ran a QR")

        monkeypatch.setattr(compression.linalg, "_householder", no_qr)
        out, report = variational_compress(target, 1, METHOD_VARIATIONAL, seed=3)
        monkeypatch.setattr(compression, "_SweepWorkspace", _EinsumWorkspace)
        _, ref = variational_compress(target, 1, METHOD_VARIATIONAL, seed=3)
        assert (report.sweeps_used, report.converged) == (ref.sweeps_used, ref.converged) == (1, True)
        assert report.sweep_errors == ref.sweep_errors
        assert report.fidelity == ref.fidelity
        assert abs(report.error) <= 1e-15
        assert np.max(np.abs(out.sites[0] - target.sites[0])) <= 1e-15

    def test_seed_at_its_fixed_point_stops_after_one_sweep(self):
        # the truncated cloner state is already the cap-D optimum: its first
        # sweep matches the starting projection (sweep 0) to 1e-12
        for m, cap in ((5, 2), (6, 3), (8, 4)):
            target = gm_mps(GMSpec(m))
            _, report = variational_compress(target, cap, METHOD_VARIATIONAL_SEEDED)
            assert (report.sweeps_used, report.converged) == (1, True), (m, cap)
            assert abs(report.error - svd_truncate_mps(target, cap)[1].error) <= 1e-15

    @pytest.mark.parametrize("m", [6, 7, 8])
    def test_unseeded_gap_closes_at_schmidt_ratio_rate(self, m):
        # single-site ALS from a random start closes its squared-distance gap
        # to the cap-2 floor by (s_3 / s_2)^4 per sweep, with s the Schmidt
        # values of the binding clone/anticlone cut: 0.64 to 0.73 here, which
        # is why these runs meet the 50-sweep limit
        v = gm_state(GMSpec(m))
        s = np.linalg.svd(v.reshape(2**m, -1), compute_uv=False)
        floor = 1.0 - s[0] ** 2 - s[1] ** 2
        _, report = variational_compress(gm_mps(GMSpec(m)), 2, METHOD_VARIATIONAL, seed=7)
        gaps = np.array(report.sweep_errors) - floor
        rate = (gaps[47] / gaps[39]) ** (1 / 8)
        assert abs(rate - (s[2] / s[1]) ** 4) <= 1e-3
