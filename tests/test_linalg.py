"""Tests for the dense linear-algebra substrate."""

import numpy as np
import pytest

from seqclone import linalg
from seqclone.errors import NumericalFailure
from seqclone.linalg import (
    complete_to_unitary,
    qr,
    svd,
    truncate_rank,
)


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unitary(rng, dim):
    q, r = np.linalg.qr(random_complex(rng, dim, dim))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestSvd:
    def test_identity(self):
        res = svd(np.eye(2, dtype=complex))
        assert np.allclose(res.singulars, [1.0, 1.0])

    def test_diagonal(self):
        res = svd(np.diag([3.0, 0.0]).astype(complex))
        assert np.allclose(res.singulars, [3.0, 0.0])

    def test_reconstruction_random(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = random_complex(rng, 4, 4)
            res = svd(a)
            assert np.linalg.norm(res.reconstruct() - a) <= 1e-10 * np.linalg.norm(a)

    def test_orthonormality_and_ordering(self):
        rng = np.random.default_rng(1)
        for rows, cols in [(3, 5), (5, 3), (4, 4)]:
            a = random_complex(rng, rows, cols)
            res = svd(a)
            k = min(rows, cols)
            assert res.singulars.shape == (k,)
            assert np.all(np.diff(res.singulars) <= 0)
            assert np.all(res.singulars >= 0)
            assert np.allclose(res.left.conj().T @ res.left, np.eye(k), atol=1e-12)
            assert np.allclose(res.right.conj().T @ res.right, np.eye(k), atol=1e-12)

    def test_deterministic_phases(self):
        rng = np.random.default_rng(2)
        a = random_complex(rng, 5, 5)
        r1, r2 = svd(a), svd(a.copy())
        assert np.array_equal(r1.left, r2.left)
        for j in range(5):
            pivot = np.argmax(np.abs(r1.left[:, j]))
            assert abs(r1.left[pivot, j].imag) < 1e-14
            assert r1.left[pivot, j].real > 0

    def test_tied_pivot_is_rounding_stable(self):
        # every left singular vector has entries +-0.5 of equal magnitude;
        # rounding-level noise must not move the phase pivot among them
        rng = np.random.default_rng(3)
        h = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2.0
        a = (h * [4.0, 3.0, 2.0, 1.0]) @ random_unitary(rng, 4)
        ref = svd(a).left
        assert np.allclose(ref[0], 0.5, atol=1e-12)
        for _ in range(20):
            noisy = a + 1e-15 * random_complex(rng, 4, 4)
            assert np.max(np.abs(svd(noisy).left - ref)) < 1e-12

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            svd(np.zeros((0, 3)))

    @staticmethod
    def per_column_phase_fix(a):
        """Reference: the phase convention applied one column at a time."""
        u, s, vh = np.linalg.svd(a, full_matrices=False)
        for j in range(u.shape[1]):
            mags = np.abs(u[:, j])
            pivot = np.argmax(mags >= (1.0 - linalg.PIVOT_RTOL) * mags.max())
            mag = mags[pivot]
            if mag > 0.0:
                phase = u[pivot, j] / mag
                u[:, j] *= np.conj(phase)
                vh[j, :] *= phase
        return u, s, vh.conj().T

    def test_matches_per_column_reference_bit_for_bit(self):
        rng = np.random.default_rng(4)
        h = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2.0
        cases = [random_complex(rng, *shape) for shape in [(8, 16), (16, 8), (5, 5), (1, 4)]]
        cases += [(h * [4.0, 3.0, 2.0, 1.0]) @ random_unitary(rng, 4) for _ in range(5)]
        cases += [c + 1e-15 * random_complex(rng, 4, 4) for c in cases[-5:]]
        for a in cases:
            got = svd(a)
            for x, y in zip(got, self.per_column_phase_fix(a)):
                assert x.tobytes() == y.tobytes()


def _qr_cases():
    rng = np.random.default_rng(7)
    tall, square, wide = (random_complex(rng, *shape) for shape in [(16, 8), (4, 4), (3, 6)])
    zero_column = random_complex(rng, 6, 3)
    zero_column[:, 1] = 0.0
    repeated_column = random_complex(rng, 6, 3)
    repeated_column[:, 2] = repeated_column[:, 0]
    return {
        "tall": tall,
        "square": square,
        "wide": wide,
        "zero-column": zero_column,
        "repeated-column": repeated_column,
    }


QR_CASES = _qr_cases()


def buffers(n):
    """``tau`` and ``work`` for ``linalg._householder`` of a matrix ``n`` wide."""
    return np.empty(n, np.complex128), np.empty(3 * n, np.complex128)


def q_in_place(a):
    """The ALS sweep's QR: ``q`` of ``a`` from a fresh copy in LAPACK's layout."""
    return linalg._householder(a.T.copy(), *buffers(a.shape[1]))[0]


class TestQr:
    @pytest.mark.parametrize("name", list(QR_CASES))
    def test_thin_factors(self, name):
        a = QR_CASES[name]
        q, r = qr(a)
        k = min(a.shape)
        assert q.shape == (a.shape[0], k) and r.shape == (k, a.shape[1])
        assert np.max(np.abs(q.conj().T @ q - np.eye(k))) <= 1e-14
        assert np.array_equal(r, np.triu(r))
        assert np.max(np.abs(q @ r - a)) <= 1e-14
        assert np.array_equal(q_in_place(a), q)

    @pytest.mark.parametrize("name", list(QR_CASES))
    def test_agrees_with_numpy(self, name):
        # same LAPACK routines as numpy.linalg.qr, reached through its
        # private lapack_lite module; a numpy release that changes either
        # fails here
        a = QR_CASES[name]
        q, r = qr(a)
        q_ref, r_ref = np.linalg.qr(a)
        assert np.array_equal(q, q_ref)
        assert np.array_equal(r, r_ref)
        assert np.array_equal(q_in_place(a), q_ref)

    def test_reused_buffers_change_no_bits(self):
        # one tau/work pair, filled with NaN and sized for the widest case,
        # through every case, narrowest first and then back: what an earlier
        # call left in them, and their spare length, change nothing
        tau, work = buffers(max(a.shape[1] for a in QR_CASES.values()))
        tau[:] = work[:] = np.nan
        for a in [*reversed(QR_CASES.values()), *QR_CASES.values()]:
            assert np.array_equal(linalg._householder(a.T.copy(), tau, work)[0], qr(a)[0])

    @pytest.mark.parametrize("routine", ["zgeqrf", "zungqr"])
    def test_lapack_error_raises(self, monkeypatch, routine):
        real = getattr(linalg.lapack_lite, routine)

        def failing(*args):
            return {**real(*args), "info": -1}

        monkeypatch.setattr(linalg.lapack_lite, routine, failing)
        for factor in (qr, q_in_place):
            with pytest.raises(NumericalFailure, match="QR failed"):
                factor(QR_CASES["square"])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            qr(np.zeros((0, 2), dtype=complex))


HOUSEHOLDER_SHAPES = [(1, 1), (2, 1), (1, 2), (4, 2), (2, 4), (6, 3), (3, 6),
                      (8, 8), (16, 8), (8, 16), (32, 16), (16, 32)]


class TestHouseholderQ:
    @pytest.mark.parametrize("shape", HOUSEHOLDER_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_q_is_numpys(self, shape):
        a = random_complex(np.random.default_rng(sum(shape)), *shape)
        q = q_in_place(a)
        assert q.shape == (shape[0], min(shape))
        assert q.tobytes() == np.linalg.qr(a)[0].tobytes()

    @pytest.mark.parametrize("shape", [(6, 3), (3, 6)], ids=["tall", "wide"])
    def test_overwrites_p_in_place(self, shape):
        a = random_complex(np.random.default_rng(5), *shape)
        p = a.T.copy()
        q = linalg._householder(p, *buffers(shape[1]))[0]
        assert np.shares_memory(q, p)
        assert np.array_equal(q, p[: min(shape)].T)
        assert not np.array_equal(p, a.T)


class TestTruncateRank:
    def test_rank_one_unchanged(self):
        rng = np.random.default_rng(3)
        a = np.outer(random_complex(rng, 4), random_complex(rng, 4))
        assert np.allclose(truncate_rank(a, 1), a, atol=1e-12)

    def test_diagonal_example(self):
        a = np.diag([3.0, 1.0]).astype(complex)
        t = truncate_rank(a, 1)
        assert np.allclose(t, np.diag([3.0, 0.0]), atol=1e-12)
        assert abs(np.linalg.norm(a - t, "fro") - 1.0) < 1e-12

    def test_full_rank_cap_is_lossless(self):
        rng = np.random.default_rng(4)
        a = random_complex(rng, 4, 6)
        assert np.allclose(truncate_rank(a, 4), a, atol=1e-12)

    def test_invalid_rank(self):
        a = np.eye(3, dtype=complex)
        with pytest.raises(ValueError):
            truncate_rank(a, 0)
        with pytest.raises(ValueError):
            truncate_rank(a, 4)

    def test_beats_random_candidates(self):
        # Eckart-Young: no sampled rank-k matrix comes closer in Frobenius norm
        rng = np.random.default_rng(5)
        a = random_complex(rng, 5, 5)
        k = 2
        best = np.linalg.norm(a - truncate_rank(a, k), "fro")
        samples = 10_000
        u = random_complex(rng, samples, 5, k)
        v = random_complex(rng, samples, k, 5)
        cands = np.einsum("sik,skj->sij", u, v)
        errs = np.linalg.norm(cands - a, axis=(1, 2))
        assert np.all(best <= errs + 1e-12)


class TestCompleteToUnitary:
    def test_identity_columns(self):
        iso = np.eye(4, dtype=complex)[:, :2]
        u = complete_to_unitary(iso)
        assert np.allclose(u[:, :2], iso)
        assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-12)

    def test_square_input_unchanged(self):
        rng = np.random.default_rng(8)
        u0 = random_unitary(rng, 3)
        assert np.allclose(complete_to_unitary(u0), u0)

    def test_random_isometry(self):
        rng = np.random.default_rng(9)
        iso = np.linalg.qr(random_complex(rng, 4, 2))[0]
        u = complete_to_unitary(iso)
        assert np.allclose(u[:, :2], iso, atol=1e-12)
        assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-12)
        assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-12)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            complete_to_unitary(np.ones((3, 2), dtype=complex))

    def test_rejects_wide(self):
        with pytest.raises(ValueError):
            complete_to_unitary(np.eye(2, 3, dtype=complex))
