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
    # seeded sweeping: the report of the truncation it started from
    seed_report: FidelityReport | None = None

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
    return _truncate(target, bond_cap)


def _truncate(target, bond_cap):
    """:func:`svd_truncate_mps` of a chain already known to be canonical."""
    if bond_cap >= target.max_bond:
        report = FidelityReport(
            fidelity=1.0,
            sweeps_used=0,
            method=METHOD_SVD,
            bond_cap=bond_cap,
            qubits=target.n_qubits,
        )
        return target.copy(), report

    sites = list(target.sites)  # replaced below, never written into
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
    every site right of it right-orthonormal.  ``lenv[k]`` pairs the
    conjugated trial chain left of site ``k`` with the target chain
    (trial bond by target bond), ``renv[k]`` the same right of it (target
    bond by trial bond).  With orthonormal environments the local
    least-squares problem is solved by the projection
    ``X^i = lenv[k] T_k^i renv[k]``, and ``||t - s||^2 = 1 - ||X||^2`` after
    it.

    Target sites are held as ``(left, 2, right)`` blocks, so each product
    below is one 2-D matrix product with the physical index folded into a
    row or column; ``ndarray.dot`` runs the same ``zgemm`` as ``@`` with
    less call overhead on matrices this small.  A site visit projects in two
    halves, ``lenv[k] @ T_k`` (left pass) or ``T_k @ renv[k]`` (right pass),
    orthonormalizes the projection by ``linalg._householder``, and
    builds the next environment from ``q`` and the half it kept.  That QR
    takes LAPACK's layout, ``x.T``: a copy in the left pass, and in the
    right pass, which factorizes ``x.T``, the fresh ``x`` itself.  ``tau``
    and ``work`` fit the widest trial bond (no sweep widens one).
    The ``R`` factor is not carried: the next site is overwritten by its own
    projection before anything reads it.  Each end site is projected once
    per turn, its environment on the far side being 1.  Trial sites right of
    the centre are kept as the ``q`` of the right pass, ``(2 right, left)``,
    and site 0 as ``centre``, the projection that carries over to the next
    sweep.  ``error`` is ``1 - ||centre||^2``: the starting projection's
    after set-up (sweep 0), then each sweep's.
    """

    def __init__(self, target_sites, trial_sites):
        blocks = [np.ascontiguousarray(t.transpose(1, 0, 2)) for t in target_sites]
        self.rows = [b.reshape(b.shape[0], -1) for b in blocks]  # (left, 2 right)
        self.cols = [b.reshape(-1, b.shape[2]) for b in blocks]  # (2 left, right)
        self.lefts, self.rights = [b.shape[0] for b in blocks], [b.shape[2] for b in blocks]
        width = max(max(x.shape[1:]) for x in trial_sites)
        self.tau, self.work = np.empty(width, np.complex128), np.empty(3 * width, np.complex128)
        n = len(blocks)
        one = np.ones((1, 1), dtype=np.complex128)
        self.lenv = [one] * n
        self.renv = [one] * n
        self.qs = [None] * n
        half = self.rows[-1]
        for k in range(n - 1, 0, -1):
            x = trial_sites[k]
            q = self.qs[k] = x.transpose(0, 2, 1).reshape(-1, x.shape[1])
            self.renv[k - 1] = half.dot(q.conj())
            half = self.cols[k - 1].dot(self.renv[k - 1]).reshape(self.lefts[k - 1], -1)
        self.centre = half.reshape(2, -1)
        self.error = 1.0 - float(np.vdot(half, half).real)

    def sweep(self) -> float:
        """One left-to-right plus right-to-left pass; returns final ``||t-s||^2``."""
        rows, cols, lenv, renv = self.rows, self.cols, self.lenv, self.renv
        lefts, rights, tau, work = self.lefts, self.rights, self.tau, self.work
        q_of = linalg._householder
        x, half = self.centre, cols[0]  # lenv[0] = 1
        for k in range(len(rows) - 1):
            # x = half @ renv[k], site k as a (left * 2, right) matrix; half = lenv[k] @ T_k
            q = q_of(x.T.copy(), tau, work)[0]
            lenv[k + 1] = q.conj().T.dot(half)
            half = lenv[k + 1].dot(rows[k + 1]).reshape(-1, rights[k + 1])
            x = half.dot(renv[k + 1])
        x, half = x.reshape(-1, 2), rows[-1]  # renv[n - 1] = 1
        for k in range(len(rows) - 1, 0, -1):
            # x = lenv[k] @ half, site k as a (left, 2 * right) matrix; half = T_k @ renv[k]
            q = self.qs[k] = q_of(x, tau, work)[0]  # the QR of x.T, in x
            renv[k - 1] = half.dot(q.conj())
            half = cols[k - 1].dot(renv[k - 1]).reshape(lefts[k - 1], -1)
            x = lenv[k - 1].dot(half)
        self.centre = x.reshape(2, -1)
        self.error = 1.0 - float(np.vdot(x, x).real)
        return self.error

    def sites(self) -> list[np.ndarray]:
        """The trial chain as ``(2, left, right)`` sites."""
        out = [self.centre.reshape(2, 1, -1)]
        for q in self.qs[1:]:
            out.append(q.reshape(2, -1, q.shape[1]).transpose(0, 2, 1))
        return out


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
    sweep falls below ``convergence_tol``.  The first sweep is compared with
    the starting projection of site 0, sweep 0, so a start already at its
    fixed point stops after one sweep.  The trial is normalized once at the
    end and the report carries ``1 - |<target|trial>|``.

    When seeded, the sweep starts from the per-bond truncated state, the
    result is guaranteed not to be worse than that seed, and the report
    carries the seed's own report as ``seed_report``.
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
        mps_mod.canonicalize(target.sites, +1, normalize=True)

    seed_report = None
    if method == METHOD_VARIATIONAL_SEEDED:
        # per-bond truncation leaves sites 1..n-1 right-orthonormal; the
        # target was made canonical above, so it is not measured again
        trial, seed_report = _truncate(target, bond_cap)
        if bond_cap >= target.max_bond:
            report = FidelityReport(
                fidelity=1.0, sweeps_used=0, method=method,
                bond_cap=bond_cap, qubits=n, seed_report=seed_report,
            )
            return trial, report
    else:
        trial = _random_trial(n, bond_cap, np.random.default_rng(seed))
        mps_mod.canonicalize(trial.sites, -1)

    work = _SweepWorkspace(target.sites, trial.sites)
    sweep_errors: list[float] = []
    converged = False
    sweeps = 0
    error = work.error  # sweep 0: the starting projection of site 0
    for sweeps in range(1, max_sweeps + 1):
        previous, error = error, work.sweep()
        sweep_errors.append(error)
        if abs(previous - error) < convergence_tol:
            converged = True
            break

    out = MatrixProductState(sites=work.sites())
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
        seed_report=seed_report,
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
    on it.  When both truncation and seeded sweeping are asked for, a cap's
    truncation runs once: the seeded run's ``seed_report`` is the truncation
    row.  Deterministic for a fixed seed.
    """
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    target = gm_mps(spec)

    def run(cap, method):
        return compress(
            target, cap, method,
            max_sweeps=max_sweeps, convergence_tol=convergence_tol, seed=seed,
        )[1]

    reports = []
    for cap in bond_caps:
        seeded = None
        if METHOD_VARIATIONAL_SEEDED in methods:
            seeded = run(cap, METHOD_VARIATIONAL_SEEDED)
        for method in methods:
            if method == METHOD_VARIATIONAL_SEEDED:
                reports.append(seeded)
            elif method == METHOD_SVD and seeded is not None:
                reports.append(seeded.seed_report)
            else:
                reports.append(run(cap, method))
    return reports
