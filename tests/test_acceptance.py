"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the measured
numbers next to every criterion.

Three checks (5, 6 and the wide-register rows of 8) pin compression and
synthesis error levels that are mathematically unattainable for this state
family: the Schmidt weight that any bond-``D`` approximation can retain at a
single chain cut bounds its fidelity, and a sequential preparation with a
2-level ancilla *is* a bond-2 chain, so the same bound applies to it.  The
cloner states here have slowly decaying cut spectra, which puts those pinned
tolerances orders of magnitude below the provable ceiling.  The checks are
kept exactly as pinned and fail honestly; each failure message carries the
measured optimum (which saturates the ceiling) alongside the bound.
"""

import csv
import time

import numpy as np
import pytest

from seqclone.cloning import (
    GMSpec,
    KET_PLUS,
    KET_ZERO,
    KET_ONE,
    PureQubit,
    clone_fidelity_oracle,
    gm_coefficients,
    gm_state,
)
from seqclone.compression import (
    METHOD_SVD,
    METHOD_VARIATIONAL_SEEDED,
    compress,
)
from seqclone.mps import from_statevector
from seqclone.cli import main as cli_main
from seqclone.sequential import optimize_schedule

from gm_dense import apply_step_unitaries, extract_step_unitaries
from test_linalg import truncate_rank


def random_qubit(rng):
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    a /= np.linalg.norm(a)
    return PureQubit(a[0], a[1])


def schmidt_ceiling(state, n, cap):
    """Largest fidelity any bond-``cap`` chain can reach (single-cut bound)."""
    worst = 1.0
    for cut in range(1, n):
        s = np.linalg.svd(state.reshape(2**cut, -1), compute_uv=False)
        worst = min(worst, float(np.sum(s[:cap] ** 2)))
    return float(np.sqrt(worst))


_SCAN_CACHE = {}


def scan_point(clones, cap, method):
    """Cached compression of the cloner state at one (cap, method) point."""
    key = (clones, cap, method)
    if key not in _SCAN_CACHE:
        target = from_statevector(gm_state(GMSpec(clones, KET_PLUS)), 1e-10)
        _, report = compress(target, cap, method, max_sweeps=100)
        _SCAN_CACHE[key] = report
    return _SCAN_CACHE[key]


def test_acceptance_01_coefficient_identities():
    start = time.perf_counter()
    for m in range(1, 21):
        a = gm_coefficients(m)
        assert abs(np.sum(a**2) - 1.0) <= 1e-12, f"M={m}: weights not normalized"
    two = gm_coefficients(2)
    assert abs(two[0] - np.sqrt(2 / 3)) <= 1e-12
    assert abs(two[1] - np.sqrt(1 / 3)) <= 1e-12
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE 1 coefficient identities: PASS ({elapsed:.2f}s)")
    assert elapsed < 1.0


def test_acceptance_02_state_structure():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    for m in range(2, 8):
        n = 2 * m - 1
        q = random_qubit(rng)
        state = gm_state(GMSpec(m, q))
        assert abs(np.linalg.norm(state) - 1.0) <= 1e-12, f"M={m}: not normalized"
        tensor = state.reshape((2,) * n)
        for axis in range(m - 1):  # adjacent clone swaps
            swapped = np.swapaxes(tensor, axis, axis + 1)
            assert np.max(np.abs(tensor - swapped)) <= 1e-12, f"M={m}: clone swap"
        for axis in range(m, n - 1):  # adjacent anticlone swaps
            swapped = np.swapaxes(tensor, axis, axis + 1)
            assert np.max(np.abs(tensor - swapped)) <= 1e-12, f"M={m}: anticlone swap"
        combo = q.alpha * gm_state(GMSpec(m, KET_ZERO)) + q.beta * gm_state(
            GMSpec(m, KET_ONE)
        )
        assert np.max(np.abs(state - combo)) <= 1e-12, f"M={m}: linearity"
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE 2 state structure M=2..7: PASS ({elapsed:.2f}s)")
    assert elapsed < 30.0


def test_acceptance_03_clone_quality_oracle():
    start = time.perf_counter()
    value = clone_fidelity_oracle(GMSpec(2, KET_PLUS), 1)
    assert abs(value - 5 / 6) <= 1e-12, f"clone fidelity {value} != 5/6"
    rng = np.random.default_rng(7)
    vals = [clone_fidelity_oracle(GMSpec(2, random_qubit(rng)), 1) for _ in range(20)]
    spread = max(vals) - min(vals)
    assert spread <= 1e-10, f"oracle depends on the input state: spread {spread:.2e}"
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE 3 clone-quality oracle: PASS (value 5/6, spread {spread:.1e}, {elapsed:.2f}s)")
    assert elapsed < 10.0


def test_acceptance_04_rank_scaling():
    start = time.perf_counter()
    profile = {}
    for m in range(2, 8):
        n = 2 * m - 1
        chain = from_statevector(gm_state(GMSpec(m, KET_PLUS)), 1e-10)
        profile[m] = chain.max_bond
        assert chain.max_bond <= 2 * m, f"M={m}: bond {chain.max_bond} > {2 * m}"
        if m >= 3:
            canonical = 2 ** (n // 2)
            assert chain.max_bond < canonical, (
                f"M={m}: bond {chain.max_bond} not below canonical {canonical}"
            )
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE 4 rank scaling: PASS (max bonds {profile}, {elapsed:.2f}s)")
    assert elapsed < 60.0


def test_acceptance_05_regularization_13_qubits():
    start = time.perf_counter()
    state = gm_state(GMSpec(7, KET_PLUS))
    err3 = scan_point(7, 3, METHOD_VARIATIONAL_SEEDED).error
    err2 = scan_point(7, 2, METHOD_VARIATIONAL_SEEDED).error
    floor3 = 1.0 - schmidt_ceiling(state, 13, 3)
    floor2 = 1.0 - schmidt_ceiling(state, 13, 2)
    elapsed = time.perf_counter() - start
    print(
        f"\nACCEPTANCE 5 regularization n=13: cap 3 error {err3:.6e} "
        f"(pinned <= 1e-10, provable floor {floor3:.3e}); "
        f"cap 2 error {err2:.6e} (pinned within [1e-3, 1e-1], provable floor "
        f"{floor2:.3e}); {elapsed:.2f}s"
    )
    assert elapsed < 600.0
    failures = []
    if not err3 <= 1e-10:
        failures.append(
            f"cap-3 error {err3:.6e} > 1e-10; any bond-3 chain is floored at "
            f"{floor3:.3e} by the single-cut Schmidt bound"
        )
    if not 1e-3 <= err2 <= 1e-1:
        failures.append(
            f"cap-2 error {err2:.6e} outside [1e-3, 1e-1]; floor {floor2:.3e}"
        )
    if failures:
        pytest.fail("; ".join(failures))


def test_acceptance_06_bond_cap_scaling_trend():
    start = time.perf_counter()
    errors3, errors2 = {}, {}
    for m in range(2, 8):
        n = 2 * m - 1
        errors3[n] = scan_point(m, 3, METHOD_VARIATIONAL_SEEDED).error
        errors2[n] = scan_point(m, 2, METHOD_VARIATIONAL_SEEDED).error
    elapsed = time.perf_counter() - start
    print(
        f"\nACCEPTANCE 6 scaling trend: cap-3 errors "
        f"{ {k: float(f'{v:.3e}') for k, v in errors3.items()} }, cap-2 errors "
        f"{ {k: float(f'{v:.3e}') for k, v in errors2.items()} } ({elapsed:.2f}s)"
    )
    assert elapsed < 900.0
    seq2 = [errors2[n] for n in sorted(errors2)]
    assert all(b > a for a, b in zip(seq2, seq2[1:])), (
        f"cap-2 error must grow with register size, got {seq2}"
    )
    bad = {n: e for n, e in errors3.items() if e > 1e-8}
    if bad:
        floors = {
            n: float(
                f"{1.0 - schmidt_ceiling(gm_state(GMSpec((n + 1) // 2, KET_PLUS)), n, 3):.3e}"
            )
            for n in bad
        }
        pytest.fail(
            f"cap-3 errors above the pinned 1e-8 at n={sorted(bad)}: {bad}; "
            f"single-cut Schmidt floors are {floors}"
        )


def test_acceptance_07_method_ordering():
    start = time.perf_counter()
    worst = -np.inf
    for m in range(2, 8):
        for cap in (2, 3):
            svd_err = scan_point(m, cap, METHOD_SVD).error
            var_err = scan_point(m, cap, METHOD_VARIATIONAL_SEEDED).error
            worst = max(worst, var_err - svd_err)
            assert var_err <= svd_err + 1e-12, (
                f"M={m} cap={cap}: variational {var_err:.3e} worse than "
                f"truncation {svd_err:.3e}"
            )
    elapsed = time.perf_counter() - start
    print(
        f"\nACCEPTANCE 7 method ordering: PASS (max variational excess "
        f"{worst:.2e}, {elapsed:.2f}s)"
    )


def _synthesis_task(args):
    n, aux, seed = args
    target = gm_state(GMSpec((n + 1) // 2, KET_PLUS))
    result = optimize_schedule(
        target, n, aux=aux, restarts=8, seed=seed,
        max_sweeps=60, inner_maxfev=300,
    )
    return n, aux, seed, 1.0 - result.fidelity


def test_acceptance_08_restricted_synthesis():
    start = time.perf_counter()
    seeds = (0, 1, 2)
    tasks = [(n, True, s) for n in (3, 5, 7) for s in seeds]
    tasks += [(3, False, s) for s in seeds]
    outcomes = [_synthesis_task(task) for task in tasks]
    best = {}
    for n, aux, _, err in outcomes:
        key = (n, aux)
        best[key] = min(best.get(key, np.inf), err)
    floors = {
        n: 1.0 - schmidt_ceiling(gm_state(GMSpec((n + 1) // 2, KET_PLUS)), n, 2)
        for n in (3, 5, 7)
    }
    elapsed = time.perf_counter() - start
    print(
        f"\nACCEPTANCE 8 restricted synthesis (best of 8 restarts x 3 seeds): "
        f"aux-on errors n=3: {best[(3, True)]:.3e}, n=5: {best[(5, True)]:.3e}, "
        f"n=7: {best[(7, True)]:.3e}; bond-2 floors {floors[5]:.3e} (n=5), "
        f"{floors[7]:.3e} (n=7); aux-off n=3: {best[(3, False)]:.3e}; "
        f"{elapsed:.0f}s"
    )
    assert elapsed < 1800.0
    assert best[(3, False)] >= 0.4, (
        f"aux-off n=3 error {best[(3, False)]:.3e} below 0.4"
    )
    failures = []
    if not best[(3, True)] <= 1e-6:
        failures.append(f"n=3 aux-on error {best[(3, True)]:.3e} > 1e-6")
    if not best[(5, True)] <= 1e-3:
        failures.append(
            f"n=5 aux-on error {best[(5, True)]:.3e} > 1e-3 (2-level-ancilla "
            f"preparations are bond-2 chains, floored at {floors[5]:.3e})"
        )
    if not best[(7, True)] <= 5e-2:
        failures.append(
            f"n=7 aux-on error {best[(7, True)]:.3e} > 5e-2 (floored at "
            f"{floors[7]:.3e})"
        )
    if failures:
        pytest.fail("; ".join(failures))


def test_acceptance_09_truncation_optimality_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for trial in range(100):
        rows = int(rng.integers(2, 9))
        cols = int(rng.integers(2, 9))
        k = int(rng.integers(1, min(rows, cols) + 1))
        a = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        best = np.linalg.norm(a - truncate_rank(a, k), "fro")
        u = rng.standard_normal((10_000, rows, k)) + 1j * rng.standard_normal(
            (10_000, rows, k)
        )
        v = rng.standard_normal((10_000, k, cols)) + 1j * rng.standard_normal(
            (10_000, k, cols)
        )
        errs = np.linalg.norm(np.einsum("sik,skj->sij", u, v) - a, axis=(1, 2))
        assert np.all(best <= errs + 1e-12), f"trial {trial}: a sampled candidate won"
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE 9 truncation optimality suite: PASS ({elapsed:.1f}s)")
    assert elapsed < 60.0


def test_acceptance_10_sequential_isometries():
    start = time.perf_counter()
    target = gm_state(GMSpec(2, KET_PLUS))
    chain = from_statevector(target, 1e-10)
    unitaries = extract_step_unitaries(chain)
    joint = apply_step_unitaries(unitaries, 3, chain.max_bond)
    overlap_vec = joint @ target.conj()
    fidelity = float(np.linalg.norm(overlap_vec))
    schmidt = np.linalg.svd(joint, compute_uv=False)
    elapsed = time.perf_counter() - start
    assert fidelity >= 1 - 1e-10, f"regenerated overlap {fidelity}"
    assert schmidt[1] <= 1e-10, f"ancilla not decoupled: residual {schmidt[1]:.2e}"
    print(
        f"\nACCEPTANCE 10 sequential isometries: PASS (overlap {fidelity:.12f}, "
        f"ancilla residual {schmidt[1]:.1e}, {elapsed:.2f}s)"
    )
    assert elapsed < 5.0


def test_acceptance_11_cli_determinism(tmp_path):
    start = time.perf_counter()
    runs = {
        "regularize": [
            "regularize", "--clones", "2,3", "--bond-caps", "2,3",
            "--methods", "svd,variational", "--seed", "11", "--threads", "2",
        ],
        "synthesize": [
            "synthesize", "--qubits", "3", "--restarts", "2", "--seed", "11",
            "--max-sweeps", "6", "--threads", "1",
        ],
        "gm-info": ["gm-info", "--clones", "3", "--seed", "11"],
    }
    for name, argv in runs.items():
        a = tmp_path / f"{name}_a.csv"
        b = tmp_path / f"{name}_b.csv"
        assert cli_main(argv + ["-o", str(a)]) == 0
        assert cli_main(argv + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), f"{name}: outputs differ"
        with open(a, newline="") as fh:  # rows must re-parse
            assert len(list(csv.DictReader(fh))) >= 1
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE 11 CLI determinism: PASS ({elapsed:.1f}s)")
