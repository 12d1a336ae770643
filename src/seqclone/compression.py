"""Bond-dimension regularization of matrix-product states.

Two routes to an MPS of bond dimension at most ``bond_cap`` approximating a
target state:

* :func:`svd_truncate_mps` — one pass of per-bond Schmidt truncation (the
  Frobenius-optimal local move at each cut),
* :func:`variational_compress` — alternating least-squares sweeps in
  mixed-canonical gauge: the trial chain is kept orthonormal around one
  site, whose optimal tensor is then a projection of the target, until the
  squared distance stops decreasing.

Fidelity is the modulus of the state overlap, so it is invariant under
global phases on either argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import linalg, mps as mps_mod
from .cloning import GMSpec, gm_mps
from .errors import StructureError, check_fidelity
from .mps import MatrixProductState

METHOD_SVD = "svd_truncation"
METHOD_VARIATIONAL = "variational"
METHOD_VARIATIONAL_SEEDED = "variational_seeded_by_svd"
METHODS = (METHOD_SVD, METHOD_VARIATIONAL, METHOD_VARIATIONAL_SEEDED)


@dataclass
class FidelityReport:
    """Outcome of one compression run."""

    fidelity: float
    sweeps_used: int
    method: str
    bond_cap: int
    qubits: int
    converged: bool = True
    sweep_errors: list[float] = dc_field(default_factory=list)

    def __post_init__(self):
        check_fidelity(self.fidelity)

    @property
    def error(self) -> float:
        """``1 - fidelity``."""
        return 1.0 - self.fidelity


def fidelity(a: MatrixProductState, b: MatrixProductState) -> float:
    """``|<a|b>|`` for two normalized states; phase-insensitive."""
    if a.n_qubits != b.n_qubits:
        raise StructureError(f"qubit counts differ: {a.n_qubits} vs {b.n_qubits}")
    for name, m in (("a", a), ("b", b)):
        nrm = mps_mod.norm(m)
        if not abs(nrm - 1.0) <= 1e-10:  # also rejects NaN and inf
            raise ValueError(f"argument {name} must be normalized, got norm {nrm!r}")
    return min(abs(mps_mod.overlap(a, b)), 1.0)


def svd_truncate_mps(
    target: MatrixProductState, bond_cap: int
) -> tuple[MatrixProductState, FidelityReport]:
    """Cap every bond by discarding the smallest Schmidt values at each cut.

    Works right to left so that each cut sees a proper Schmidt decomposition
    (left side still canonical, right side already re-orthonormalized); each
    bond therefore receives its individually optimal Frobenius truncation.
    The result is renormalized and compared against the target by overlap.

    A cap at or above the current maximal bond returns the target unchanged
    with fidelity one (not an error).
    """
    if bond_cap < 1:
        raise ValueError(f"bond cap must be >= 1, got {bond_cap}")
    target.require_canonical("per-bond truncation")
    if bond_cap >= target.max_bond:
        report = FidelityReport(
            fidelity=1.0,
            sweeps_used=0,
            method=METHOD_SVD,
            bond_cap=bond_cap,
            qubits=target.n_qubits,
        )
        return target.copy(), report

    sites = target.copy().sites
    n = len(sites)
    for j in range(n - 1, 0, -1):
        two, left, right = sites[j].shape
        mat = sites[j].transpose(1, 0, 2).reshape(left, two * right)
        u, s, v = linalg.svd(mat)
        keep = min(bond_cap, s.shape[0])
        vh = v[:, :keep].conj().T
        sites[j] = vh.reshape(keep, two, right).transpose(1, 0, 2)
        carry = u[:, :keep] * s[:keep]
        sites[j - 1] = sites[j - 1] @ carry

    truncated = MatrixProductState(sites=sites)
    truncated.sites[0] = truncated.sites[0] / mps_mod.norm(truncated)
    f = min(abs(mps_mod.overlap(target, truncated)), 1.0)
    report = FidelityReport(
        fidelity=f,
        sweeps_used=1,
        method=METHOD_SVD,
        bond_cap=bond_cap,
        qubits=target.n_qubits,
    )
    return truncated, report


def _random_trial(n: int, bond_cap: int, rng: np.random.Generator) -> MatrixProductState:
    """Random chain with bond ``min(cap, 2^min(c, n-c))`` at cut ``c``, normalized."""
    bonds = [min(bond_cap, 2 ** min(c, n - c)) for c in range(n + 1)]
    sites = []
    for k in range(n):
        shape = (2, bonds[k], bonds[k + 1])
        sites.append(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    trial = MatrixProductState(sites=sites)
    trial.sites[0] = trial.sites[0] / mps_mod.norm(trial)
    return trial


class _SweepWorkspace:
    """Mixed-canonical single-site sweeps of a trial chain against a target.

    The target is normalized.  The trial enters right-canonical (sites
    ``1..n-1`` right-orthonormal) and the orthogonality centre travels with
    the update, so every site left of the centre is left-orthonormal and
    every site right of it right-orthonormal.
    ``lmix[k]``/``rmix[k]`` pair the conjugated trial chain left/right of
    site ``k`` with the target chain.  With orthonormal environments the
    local least-squares problem is solved by the projection
    ``X^i = lmix[k] T_k^i rmix[k]^T``, and ``||t - s||^2 = 1 - ||X||^2``
    after it.  Every contraction is a plain matrix product broadcast over the
    physical index of the ``(2, left, right)`` site stacks.

    Each site visit projects once and orthonormalizes by :func:`linalg.qr_q`.
    The ``R`` factor is not carried: the next site is overwritten by its own
    projection before anything reads it.  The end sites are projected once
    per turn, and the projection of site 0 (``centre``) carries over to the
    next sweep, since its environments do not change in between.
    """

    def __init__(self, target_sites, trial_sites):
        self.ts = target_sites
        self.xs = list(trial_sites)
        self.n = len(trial_sites)
        one = np.ones((1, 1), dtype=np.complex128)
        self.lmix = [one] * self.n
        self.rmix = [one] * self.n
        for k in range(self.n - 1, 0, -1):
            self._extend_rmix(k)
        self.centre = self._project(0)

    def _project(self, k):
        return self.lmix[k] @ self.ts[k] @ self.rmix[k].T

    def _extend_lmix(self, k):
        x, t = self.xs[k], self.ts[k]
        self.lmix[k + 1] = (x.conj().transpose(0, 2, 1) @ self.lmix[k] @ t).sum(0)

    def _extend_rmix(self, k):
        x, t = self.xs[k], self.ts[k]
        self.rmix[k - 1] = (x.conj() @ self.rmix[k] @ t.transpose(0, 2, 1)).sum(0)

    def sweep(self) -> float:
        """One left-to-right plus right-to-left pass; returns final ``||t-s||^2``."""
        x = self.centre
        for k in range(self.n - 1):
            two, lw, rw = x.shape
            self.xs[k] = linalg.qr_q(x.reshape(two * lw, rw)).reshape(two, lw, -1)
            self._extend_lmix(k)
            x = self._project(k + 1)
        for k in range(self.n - 1, 0, -1):
            two, lw, rw = x.shape
            q = linalg.qr_q(x.transpose(1, 0, 2).reshape(lw, two * rw).T)
            self.xs[k] = q.T.reshape(-1, two, rw).transpose(1, 0, 2)
            self._extend_rmix(k)
            x = self._project(k - 1)
        self.xs[0] = self.centre = x
        return 1.0 - float(np.vdot(x, x).real)


def variational_compress(
    target: MatrixProductState,
    bond_cap: int,
    method: str = METHOD_VARIATIONAL_SEEDED,
    max_sweeps: int = 50,
    convergence_tol: float = 1e-12,
    seed: int = 0,
) -> tuple[MatrixProductState, FidelityReport]:
    """Alternating least-squares minimization of ``||target - trial||^2``.

    Single-site sweeps in mixed-canonical gauge (Schollwoeck, Ann. Phys. 326,
    96 (2011), on compressing matrix-product states): all tensors but one
    are frozen, and with the frozen ones kept orthonormal by QR the exact
    local optimum is a projection of the target onto the environments, with
    no linear system to solve.  One sweep is a left-to-right then
    right-to-left pass; sweeping stops once the squared-distance decrease per
    sweep falls below ``convergence_tol``.  The trial is normalized once at
    the end and the report carries ``1 - |<target|trial>|``.

    When seeded, the sweep starts from the per-bond truncated state and the
    result is guaranteed not to be worse than that seed.
    """
    if bond_cap < 1:
        raise ValueError(f"bond cap must be >= 1, got {bond_cap}")
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be >= 1, got {max_sweeps}")
    if not convergence_tol > 0:
        raise ValueError("convergence_tol must be positive")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    if method == METHOD_SVD:
        raise ValueError("use svd_truncate_mps for the pure truncation method")
    target = target.copy()
    nrm = mps_mod.norm(target)
    if not 0.0 < nrm < np.inf:  # also rejects NaN
        raise ValueError(f"target norm must be positive and finite, got {nrm!r}")
    if abs(nrm - 1.0) > 1e-10:
        target.sites[0] = target.sites[0] / nrm
    n = target.n_qubits
    if not target.canonical:
        for k in range(n - 1):
            mps_mod.shift_centre(target.sites, k, +1)
        # a norm within 1e-10 of 1 can still leave a last-site defect above CANONICAL_TOL
        target.sites[-1] = target.sites[-1] / np.linalg.norm(target.sites[-1])

    seed_report = None
    if method == METHOD_VARIATIONAL_SEEDED:
        if bond_cap >= target.max_bond:
            report = FidelityReport(
                fidelity=1.0, sweeps_used=0, method=method,
                bond_cap=bond_cap, qubits=n,
            )
            return target.copy(), report
        # per-bond truncation leaves sites 1..n-1 right-orthonormal
        trial, seed_report = svd_truncate_mps(target, bond_cap)
    else:
        trial = _random_trial(n, bond_cap, np.random.default_rng(seed))
        for k in range(n - 1, 0, -1):
            mps_mod.shift_centre(trial.sites, k, -1)

    work = _SweepWorkspace(target.sites, trial.sites)
    sweep_errors: list[float] = []
    converged = False
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        sweep_errors.append(work.sweep())
        if len(sweep_errors) >= 2 and abs(sweep_errors[-2] - sweep_errors[-1]) < convergence_tol:
            converged = True
            break

    out = MatrixProductState(sites=work.xs)
    out.sites[0] = out.sites[0] / mps_mod.norm(out)
    f = min(abs(mps_mod.overlap(target, out)), 1.0)
    if seed_report is not None and 1.0 - f > seed_report.error:
        # the sweep never beat its seed (left intact by the workspace); hand it back
        out, f = trial, seed_report.fidelity
    report = FidelityReport(
        fidelity=f,
        sweeps_used=sweeps,
        method=method,
        bond_cap=bond_cap,
        qubits=n,
        converged=converged,
        sweep_errors=sweep_errors,
    )
    return out, report


def compress(
    target: MatrixProductState,
    bond_cap: int,
    method: str,
    max_sweeps: int = 50,
    convergence_tol: float = 1e-12,
    seed: int = 0,
) -> tuple[MatrixProductState, FidelityReport]:
    """Dispatch a single compression by method tag."""
    if method == METHOD_SVD:
        return svd_truncate_mps(target, bond_cap)
    return variational_compress(target, bond_cap, method, max_sweeps, convergence_tol, seed)


def regularization_scan(
    spec: GMSpec,
    bond_caps: list[int],
    methods: list[str],
    max_sweeps: int = 50,
    convergence_tol: float = 1e-12,
    seed: int = 0,
) -> list[FidelityReport]:
    """One compression report per (bond_cap, method) pair for a cloner state.

    Builds the exact cloner chain once and runs each requested compression
    on it.  Deterministic for a fixed seed.
    """
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    target = gm_mps(spec)
    reports = []
    for cap in bond_caps:
        for method in methods:
            _, report = compress(
                target, cap, method,
                max_sweeps=max_sweeps, convergence_tol=convergence_tol, seed=seed,
            )
            reports.append(report)
    return reports
