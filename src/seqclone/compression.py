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
from .errors import CanonicalFormError, ResourceLimitError, StructureError, check_fidelity
from .mps import MatrixProductState

METHOD_SVD = "svd_truncation"
METHOD_VARIATIONAL = "variational"
METHOD_VARIATIONAL_SEEDED = "variational_seeded_by_svd"
METHODS = (METHOD_SVD, METHOD_VARIATIONAL, METHOD_VARIATIONAL_SEEDED)

#: Largest register a scan accepts.
MAX_SCAN_QUBITS = 15


@dataclass
class FidelityReport:
    """Outcome of one compression run."""

    fidelity: float
    error: float
    sweeps_used: int
    method: str
    bond_cap: int
    qubits: int
    converged: bool = True
    sweep_errors: list[float] = dc_field(default_factory=list)

    def __post_init__(self):
        check_fidelity(self.fidelity)
        if abs(self.error - (1.0 - self.fidelity)) > 1e-12:
            raise ValueError("error field must equal 1 - fidelity")


@dataclass
class CompressionRequest:
    """Parameters for :func:`variational_compress`.

    ``target`` may be an MPS or a dense statevector (decomposed on demand).
    """

    target: MatrixProductState | np.ndarray
    bond_cap: int
    method: str = METHOD_VARIATIONAL_SEEDED
    max_sweeps: int = 50
    convergence_tol: float = 1e-12
    seed: int = 0

    def __post_init__(self):
        if self.bond_cap < 1:
            raise ValueError(f"bond cap must be >= 1, got {self.bond_cap}")
        if self.max_sweeps < 1:
            raise ValueError(f"max_sweeps must be >= 1, got {self.max_sweeps}")
        if not self.convergence_tol > 0:
            raise ValueError("convergence_tol must be positive")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")

    def target_mps(self) -> MatrixProductState:
        if isinstance(self.target, MatrixProductState):
            return self.target
        return mps_mod.from_statevector(np.asarray(self.target), 0.0)


def fidelity(a: MatrixProductState, b: MatrixProductState) -> float:
    """``|<a|b>|`` for two normalized states; phase-insensitive."""
    if a.n_qubits != b.n_qubits:
        raise StructureError(f"qubit counts differ: {a.n_qubits} vs {b.n_qubits}")
    for name, m in (("a", a), ("b", b)):
        nrm = mps_mod.norm(m)
        if abs(nrm - 1.0) > 1e-10:
            raise ValueError(f"argument {name} must be normalized, got norm {nrm!r}")
    return min(1.0, abs(mps_mod.overlap(a, b)))


def _absorb_boundaries(m: MatrixProductState) -> MatrixProductState:
    """Fold nontrivial boundary vectors into the edge site tensors."""
    out = m.copy()
    if out.phi_final.shape[0] != 1 or not np.allclose(out.phi_final, [1.0]):
        out.sites[0] = np.einsum("l,ilr->ir", out.phi_final.conj(), out.sites[0])[:, None, :]
        out.phi_final = np.ones(1, dtype=np.complex128)
        out.canonical = False
    if out.phi_initial.shape[0] != 1 or not np.allclose(out.phi_initial, [1.0]):
        out.sites[-1] = np.einsum("ilr,r->il", out.sites[-1], out.phi_initial)[:, :, None]
        out.phi_initial = np.ones(1, dtype=np.complex128)
        out.canonical = False
    return out


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
    if target.left_orthonormality_defect() > 1e-8:
        raise CanonicalFormError(
            "per-bond truncation needs a left-orthonormal (canonical) chain; "
            "rebuild it with from_statevector first"
        )
    if bond_cap >= target.max_bond:
        report = FidelityReport(
            fidelity=1.0,
            error=0.0,
            sweeps_used=0,
            method=METHOD_SVD,
            bond_cap=bond_cap,
            qubits=target.n_qubits,
        )
        return target.copy(), report

    work = _absorb_boundaries(target)
    sites = work.sites
    n = len(sites)
    for j in range(n - 1, 0, -1):
        two, left, right = sites[j].shape
        mat = sites[j].transpose(1, 0, 2).reshape(left, two * right)
        u, s, v = linalg.svd(mat)
        keep = min(bond_cap, s.shape[0])
        vh = v[:, :keep].conj().T
        sites[j] = vh.reshape(keep, two, right).transpose(1, 0, 2)
        carry = u[:, :keep] * s[:keep]
        sites[j - 1] = np.einsum("ipl,lk->ipk", sites[j - 1], carry)

    truncated = MatrixProductState(sites=sites)
    truncated.sites[0] = truncated.sites[0] / mps_mod.norm(truncated)
    f = min(1.0, abs(mps_mod.overlap(target, truncated)))
    report = FidelityReport(
        fidelity=f,
        error=1.0 - f,
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

    Both chains have trivial boundaries and the target is normalized.  The
    trial enters right-canonical (sites ``1..n-1`` right-orthonormal) and the
    orthogonality centre travels with the update, so every site left of the
    centre is left-orthonormal and every site right of it right-orthonormal.
    ``lmix[k]``/``rmix[k]`` pair the conjugated trial chain left/right of
    site ``k`` with the target chain.  With orthonormal environments the
    local least-squares problem is solved by the projection
    ``X = lmix[k] T_k rmix[k]``, and ``||t - s||^2 = 1 - ||X||^2`` after it.
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

    def _extend_rmix(self, k):
        self.rmix[k - 1] = sum(
            self.xs[k][i].conj() @ self.rmix[k] @ self.ts[k][i].T for i in range(2)
        )

    def _update(self, k, step) -> float:
        """Project site ``k``, then move the centre one site by ``step``."""
        x = np.einsum(
            "lt,itu,ru->ilr", self.lmix[k], self.ts[k], self.rmix[k], optimize=True
        )
        self.xs[k] = x
        if 0 <= k + step < self.n:
            mps_mod.shift_centre(self.xs, k, step)
            if step > 0:
                self.lmix[k + 1] = sum(
                    self.xs[k][i].conj().T @ self.lmix[k] @ self.ts[k][i] for i in range(2)
                )
            else:
                self._extend_rmix(k)
        return 1.0 - float(np.vdot(x, x).real)

    def sweep(self) -> float:
        """One left-to-right plus right-to-left pass; returns final ``||t-s||^2``."""
        for k in range(self.n):
            err = self._update(k, +1)
        for k in range(self.n - 1, -1, -1):
            err = self._update(k, -1)
        return err


def variational_compress(
    req: CompressionRequest,
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
    if req.method == METHOD_SVD:
        raise ValueError("use svd_truncate_mps for the pure truncation method")
    target = _absorb_boundaries(req.target_mps())
    nrm = mps_mod.norm(target)
    if abs(nrm - 1.0) > 1e-10:
        target.sites[0] = target.sites[0] / nrm
    n = target.n_qubits
    if target.left_orthonormality_defect() > 1e-8:
        for k in range(n - 1):
            mps_mod.shift_centre(target.sites, k, +1)
        target.canonical = True

    seed_report = None
    if req.method == METHOD_VARIATIONAL_SEEDED:
        if req.bond_cap >= target.max_bond:
            report = FidelityReport(
                fidelity=1.0, error=0.0, sweeps_used=0, method=req.method,
                bond_cap=req.bond_cap, qubits=n,
            )
            return target.copy(), report
        # per-bond truncation leaves sites 1..n-1 right-orthonormal
        trial, seed_report = svd_truncate_mps(target, req.bond_cap)
    else:
        trial = _random_trial(n, req.bond_cap, np.random.default_rng(req.seed))
        for k in range(n - 1, 0, -1):
            mps_mod.shift_centre(trial.sites, k, -1)

    work = _SweepWorkspace(target.sites, trial.sites)
    sweep_errors: list[float] = []
    converged = False
    sweeps = 0
    for sweeps in range(1, req.max_sweeps + 1):
        sweep_errors.append(work.sweep())
        if len(sweep_errors) >= 2 and abs(sweep_errors[-2] - sweep_errors[-1]) < req.convergence_tol:
            converged = True
            break

    out = MatrixProductState(sites=work.xs)
    out.sites[0] = out.sites[0] / mps_mod.norm(out)
    f = min(1.0, abs(mps_mod.overlap(target, out)))
    if seed_report is not None and 1.0 - f > seed_report.error:
        # the sweep never beat its seed (left intact by the workspace); hand it back
        out, f = trial, seed_report.fidelity
    report = FidelityReport(
        fidelity=f,
        error=1.0 - f,
        sweeps_used=sweeps,
        method=req.method,
        bond_cap=req.bond_cap,
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
    req = CompressionRequest(
        target=target,
        bond_cap=bond_cap,
        method=method,
        max_sweeps=max_sweeps,
        convergence_tol=convergence_tol,
        seed=seed,
    )
    return variational_compress(req)


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
    n = spec.qubits
    if n > MAX_SCAN_QUBITS:
        raise ResourceLimitError(
            f"register of {n} qubits exceeds the dense-construction cap "
            f"({MAX_SCAN_QUBITS})"
        )
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
