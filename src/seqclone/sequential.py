"""Sequential state synthesis with a restricted ancilla-qubit entangler.

A two-level ancilla interacts once with each qubit of an initially blank
register.  Each interaction step evolves the (ancilla, qubit k) pair under an
XXZ-type coupling::

    H(h1, h2) = h1 (XX + YY) + h2 ZZ

optionally augmented by unrestricted local rotations on both legs of every
step (one on the fresh qubit, one on the ancilla, applied just before the
entangler) plus extra ancilla rotations before the first and after the last
step.  The free final ancilla state is optimized in closed form, giving the
cost ``2 (1 - F)`` with ``F`` the modulus of the ancilla-contracted overlap
against a fixed target register state.

Couplings are optimized by block coordinate descent with an exact gradient:
one step's parameters at a time by L-BFGS-B, sweeping back and forth until
the cost stalls, then one L-BFGS-B polish of all parameters, repeated over
random restarts.  The gradient of ``F = ||w||`` comes from the same
environments as the cost: closed-form derivatives of the XXZ entangler and
the ZYZ rotations, and Daleckii-Krein divided differences on the
eigendecomposition of the general generator.

Layout conventions: joint vectors are indexed ancilla-first
(``index = a * 2**n + q``), the register index ``q`` reads ``i_n ... i_1``
with ``i_1`` least significant, and step ``k`` touches qubit ``k`` (bit
``k - 1``).  Evolution time is absorbed into the couplings.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.optimize import minimize

from .errors import StructureError, check_fidelity

PAULI = (
    np.eye(2, dtype=np.complex128),
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)

COUPLING_XXZ = "xxz"
COUPLING_GENERAL = "general"

# all sixteen sigma_jA (x) sigma_jQ products, flattened over (jA, jQ)
_PAULI_PAIRS = np.array(
    [np.kron(a, b) for a in PAULI for b in PAULI], dtype=np.complex128
)

_SWEEP_TOL = 1e-10
_MAX_SWEEPS = 200
_INNER_MAXFEV = 500


@dataclass(frozen=True)
class StepCoupling:
    """Couplings of one interaction step: ``h1`` for XX+YY, ``h2`` for ZZ."""

    h1: float
    h2: float

    def __post_init__(self):
        if not (np.isfinite(self.h1) and np.isfinite(self.h2)):
            raise ValueError("couplings must be finite")


@dataclass(frozen=True)
class GeneralCoupling:
    """Real 4x4 coupling table over Pauli pairs (ancilla index, qubit index)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (4, 4):
            raise ValueError(f"coupling table must be 4x4, got {m.shape}")
        object.__setattr__(self, "matrix", m)


@dataclass
class CouplingSchedule:
    """Full parameterization of an ``n``-step sequential preparation.

    ``aux_qubit[k]`` and ``aux_ancilla[k]`` hold ZYZ Euler angles of the
    local rotations applied to qubit ``k + 1`` and to the ancilla right
    before interaction step ``k + 1``; ``aux_ancilla_initial`` and
    ``aux_ancilla_final`` are extra ancilla rotations before the first and
    after the last step.  All aux rotations are skipped unless
    ``aux_enabled``.

    Rotations on *both* legs of every step are needed for the restricted
    entangler to be useful: dressing only the qubit legs leaves a cost
    plateau far above what the dressed interaction class can reach.
    """

    steps: list[StepCoupling]
    aux_enabled: bool = False
    aux_qubit: np.ndarray | None = None
    aux_ancilla: np.ndarray | None = None
    aux_ancilla_initial: np.ndarray = dc_field(default_factory=lambda: np.zeros(3))
    aux_ancilla_final: np.ndarray = dc_field(default_factory=lambda: np.zeros(3))
    phi_initial: np.ndarray = dc_field(
        default_factory=lambda: np.array([1.0, 0.0], dtype=np.complex128)
    )

    def __post_init__(self):
        if not self.steps:
            raise ValueError("schedule needs at least one step")
        n = len(self.steps)
        if self.aux_qubit is None:
            self.aux_qubit = np.zeros((n, 3))
        if self.aux_ancilla is None:
            self.aux_ancilla = np.zeros((n, 3))
        self.aux_qubit = np.asarray(self.aux_qubit, dtype=float)
        self.aux_ancilla = np.asarray(self.aux_ancilla, dtype=float)
        for name, arr in (("aux_qubit", self.aux_qubit), ("aux_ancilla", self.aux_ancilla)):
            if arr.shape != (n, 3):
                raise ValueError(f"{name} must have shape ({n}, 3), got {arr.shape}")
        self.aux_ancilla_initial = np.asarray(self.aux_ancilla_initial, dtype=float).reshape(3)
        self.aux_ancilla_final = np.asarray(self.aux_ancilla_final, dtype=float).reshape(3)
        self.phi_initial = np.asarray(self.phi_initial, dtype=np.complex128).reshape(2)
        nrm = np.linalg.norm(self.phi_initial)
        if abs(nrm - 1.0) > 1e-12:
            raise ValueError(f"phi_initial must be normalized, got norm {nrm!r}")


@dataclass
class SynthesisResult:
    """Best schedule found by :func:`optimize_schedule`."""

    generated: np.ndarray
    fidelity: float
    cost: float
    optimal_phi_final: np.ndarray
    iterations: int
    restarts_used: int
    converged: bool = True
    schedule: CouplingSchedule | None = None
    cost_history: list[float] = dc_field(default_factory=list)

    def __post_init__(self):
        check_fidelity(self.fidelity)
        if abs(self.cost - 2.0 * (1.0 - self.fidelity)) > 1e-12:
            raise ValueError("cost field must equal 2 (1 - fidelity)")


def euler_zyz(theta: float, phi: float, lam: float) -> np.ndarray:
    """SU(2) rotation ``Rz(phi) Ry(theta) Rz(lam)``, global phase dropped."""
    # Python scalars: this runs once per rotation per cost evaluation
    theta, phi, lam = float(theta), float(phi), float(lam)
    ct, st = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array(
        [
            [ct * cmath.exp(-0.5j * (phi + lam)), -st * cmath.exp(-0.5j * (phi - lam))],
            [st * cmath.exp(0.5j * (phi - lam)), ct * cmath.exp(0.5j * (phi + lam))],
        ],
        dtype=np.complex128,
    )


def xxz_hamiltonian(h1: float, h2: float) -> np.ndarray:
    """``h1 (XX + YY) + h2 ZZ`` on the (ancilla, qubit) pair, ancilla first."""
    return (
        h1 * (np.kron(PAULI[1], PAULI[1]) + np.kron(PAULI[2], PAULI[2]))
        + h2 * np.kron(PAULI[3], PAULI[3])
    )


def xxz_unitary(h1: float, h2: float) -> np.ndarray:
    """``exp(-1j * xxz_hamiltonian(h1, h2))`` in closed form.

    The generator is block diagonal: ``|00>`` and ``|11>`` pick up the phase
    ``exp(-1j h2)`` while the flip-flop block rotates by ``2 h1`` under an
    ``exp(+1j h2)`` phase.  Matches the eigendecomposition route to machine
    precision at a fraction of the cost.
    """
    u = np.zeros((4, 4), dtype=np.complex128)
    edge = np.exp(-1j * h2)
    u[0, 0] = u[3, 3] = edge
    mid = np.exp(1j * h2)
    c, s = np.cos(2.0 * h1), np.sin(2.0 * h1)
    u[1, 1] = u[2, 2] = mid * c
    u[1, 2] = u[2, 1] = mid * (-1j * s)
    return u


# generators of h1 and h2; they commute, so dU/dh_j = -1j G_j U
_XXZ_TERMS = np.array([xxz_hamiltonian(1.0, 0.0), xxz_hamiltonian(0.0, 1.0)])


def general_hamiltonian(c: GeneralCoupling) -> np.ndarray:
    """Full two-body generator ``sum_jk c[j, k] sigma_j (x) sigma_k``."""
    return np.tensordot(c.matrix.reshape(16), _PAULI_PAIRS, axes=(0, 0))


_HALF_Z_COL = np.array([[-0.5j], [0.5j]])
_HALF_Z_ROW = _HALF_Z_COL.T


def _euler_zyz_jac(angles, rot) -> np.ndarray:
    """Derivatives of ``rot = euler_zyz(*angles)`` by theta, phi and lam."""
    theta, phi, lam = angles
    return np.array([
        0.5 * euler_zyz(theta + np.pi, phi, lam),  # cos/sin(theta/2) advance a quarter turn
        rot * _HALF_Z_COL,  # -1j Z/2 on the left
        rot * _HALF_Z_ROW,  # -1j Z/2 on the right
    ])


def _kron_pair(a, b) -> np.ndarray:
    """``np.kron(a, b)`` of 2x2 matrices, batched over leading axes.

    ``np.kron`` costs several times more per call, and this runs for every
    rotation pair of every cost evaluation.
    """
    k = a[..., :, None, :, None] * b[..., None, :, None, :]
    return k.reshape(k.shape[:-4] + (4, 4))


def _general_entangler(coupling, jac):
    """``exp(-1j H)`` of a general coupling table, and its 16 derivatives.

    With ``jac`` the derivatives by the table entries come from
    Daleckii-Krein on ``H = V diag(lam) V^dagger``:
    ``dU = V ((V^dagger dH V) o D) V^dagger``, ``D`` the divided differences
    of ``exp(-1j lam)``; otherwise the second result is None.
    """
    h = general_hamiltonian(GeneralCoupling(np.reshape(coupling, (4, 4))))
    lam, v = np.linalg.eigh(h)
    vh = v.conj().T
    u = (v * np.exp(-1j * lam)) @ vh
    if not jac:
        return u, None
    # (e^{-ia} - e^{-ib}) / (a - b) = -i e^{-i(a+b)/2} sin(d)/d, d = (a - b)/2;
    # np.sinc(x) = sin(pi x)/(pi x) keeps this exact at a = b
    gap = lam[:, None] - lam[None, :]
    mean = 0.5 * (lam[:, None] + lam[None, :])
    diff = -1j * np.exp(-1j * mean) * np.sinc(gap / (2.0 * np.pi))
    return u, v @ ((vh @ _PAULI_PAIRS @ v) * diff) @ vh


def _apply_pair_gate(joint: np.ndarray, gate: np.ndarray, k: int, n: int) -> np.ndarray:
    """Apply a 4x4 (ancilla, qubit k) gate to the joint vector."""
    hi, lo = 2 ** (n - k), 2 ** (k - 1)
    t = joint.reshape(2, hi, 2, lo)
    g = gate.reshape(2, 2, 2, 2)
    return np.einsum("aibj,bhjl->ahil", g, t).reshape(-1)


def _step_gate(coupling, model=COUPLING_XXZ, aux_angles=None, jac=False):
    """Pair unitary of one step, ancilla first.

    ``coupling`` is ``(h1, h2)`` for XXZ or the 16 entries of a general
    coupling table; ``aux_angles``, when given, holds the ancilla then the
    qubit ZYZ angles of the local rotations applied before the entangler.
    With ``jac`` the result is ``(U, dU)``, ``dU[i]`` the derivative by the
    ``i``-th parameter in the order couplings, ancilla angles, qubit angles.
    """
    if model == COUPLING_XXZ:
        u = xxz_unitary(coupling[0], coupling[1])
        du = -1j * _XXZ_TERMS @ u if jac else None
    else:
        u, du = _general_entangler(coupling, jac)
    if aux_angles is not None:
        rot_a, rot_q = euler_zyz(*aux_angles[:3]), euler_zyz(*aux_angles[3:])
        local = _kron_pair(rot_a, rot_q)
        if jac:
            du = np.concatenate([
                du @ local,
                u @ _kron_pair(_euler_zyz_jac(aux_angles[:3], rot_a), rot_q),
                u @ _kron_pair(rot_a, _euler_zyz_jac(aux_angles[3:], rot_q)),
            ])
        u = u @ local
    return (u, du) if jac else u


def _trajectory(gates, n: int, phi_initial=(1.0, 0.0)):
    """Yield ``phi_initial (x) |0...0>``, then the state after each step.

    Step ``k`` applies ``gates[k - 1]`` to (ancilla, qubit ``k``).
    """
    joint = np.zeros(2 ** (n + 1), dtype=np.complex128)
    joint[0], joint[2**n] = phi_initial
    yield joint
    for k, gate in enumerate(gates, start=1):
        joint = _apply_pair_gate(joint, gate, k, n)
        yield joint


def _evolve(gates, n: int, phi_initial=(1.0, 0.0)) -> np.ndarray:
    """State after all ``gates`` (see :func:`_trajectory`)."""
    for joint in _trajectory(gates, n, phi_initial):
        pass
    return joint


def sequential_generate(schedule: CouplingSchedule, n: int) -> np.ndarray:
    """Joint (ancilla, register) state after all interaction steps.

    Starts from ``phi_initial (x) |0...0>``; step ``k`` entangles the ancilla
    with qubit ``k`` (local aux rotations first, when enabled).  The extra
    initial/final ancilla rotations bracket the whole sequence.
    """
    if len(schedule.steps) != n:
        raise ValueError(
            f"schedule has {len(schedule.steps)} steps but the register has {n} qubits"
        )
    phi = schedule.phi_initial
    angles = [None] * n
    if schedule.aux_enabled:
        angles = np.hstack([schedule.aux_ancilla, schedule.aux_qubit])
    gates = [_step_gate((s.h1, s.h2), aux_angles=a) for s, a in zip(schedule.steps, angles)]
    if schedule.aux_enabled:
        phi = euler_zyz(*schedule.aux_ancilla_initial) @ phi
        gates[-1] = np.kron(euler_zyz(*schedule.aux_ancilla_final), PAULI[0]) @ gates[-1]
    return _evolve(gates, n, phi)


def fidelity_vs_target(joint: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Best overlap of a joint state with ``phi (x) target`` over unit ``phi``.

    Contracting the register indices of the joint state against the target
    leaves an ancilla vector ``w``; the optimum is ``F = ||w||`` attained at
    ``phi = w / ||w||`` (returned as a zero vector when ``F = 0``).
    """
    joint = np.asarray(joint, dtype=np.complex128).reshape(-1)
    target = np.asarray(target, dtype=np.complex128).reshape(-1)
    if joint.size % target.size:
        raise StructureError(
            f"joint dimension {joint.size} is not a multiple of target dimension {target.size}"
        )
    dim = joint.size // target.size
    if dim < 1 or joint.size != dim * target.size:
        raise StructureError("joint state lacks an ancilla factor")
    w = joint.reshape(dim, target.size) @ target.conj()
    f = float(np.linalg.norm(w))
    phi = w / f if f > 0 else w
    return f, phi


# --- coordinate-descent optimization ----------------------------------------


class _CostEngine:
    """Cost ``2 (1 - F)`` and its exact gradient, whole or one block at a time.

    For the block at step ``k`` only that step's pair gate changes.  The
    state after steps ``1..k-1`` and the two ancilla-labelled bras obtained
    by pulling steps ``k+1..n`` onto the target are contracted over all
    untouched indices once per block, leaving a pair of 4x4 environment
    tensors; each trial evaluation is then a gate build plus two Frobenius
    inner products, and its gradient the same products with ``dU``.
    """

    def __init__(self, target, n, aux, model):
        self.target = target
        self.n = n
        self.aux = aux
        self.model = model
        self.nstep = 2 if model == COUPLING_XXZ else 16
        self.block_size = self.nstep + (6 if aux else 0)

    def unpack(self, params):
        """params -> (coupling rows, ancilla-angle rows, qubit-angle rows)."""
        per_step = params.reshape(self.n, self.block_size)
        coup = per_step[:, : self.nstep]
        aang = per_step[:, self.nstep: self.nstep + 3]
        qang = per_step[:, self.nstep + 3:]
        return coup, aang, qang

    def param_count(self):
        return self.n * self.block_size

    def step_gate(self, block_row, jac=False):
        aux_angles = block_row[self.nstep:] if self.aux else None
        return _step_gate(block_row[: self.nstep], self.model, aux_angles, jac)

    def generate(self, params):
        rows = params.reshape(self.n, self.block_size)
        return _evolve([self.step_gate(r) for r in rows], self.n)

    def cost(self, params):
        f, _ = fidelity_vs_target(self.generate(params), self.target)
        return 2.0 * (1.0 - f)

    def cost_and_grad(self, params):
        """Cost and gradient over all parameters in O(n) pair-gate applications.

        With ``w^H dw = <chi_k, dU_k psi_{k-1}>`` for the bra
        ``chi_k = (U_n ... U_{k+1})^dagger (w (x) target)``, one forward pass
        keeps the states ``psi_0 .. psi_{n-1}`` and one backward pass pulls
        ``chi`` through the steps, contracting it with each kept state.
        """
        n = self.n
        gates = [self.step_gate(r, jac=True) for r in params.reshape(n, self.block_size)]
        states = list(_trajectory([u for u, _ in gates], n))
        w = states.pop().reshape(2, 2**n) @ self.target.conj()
        f = float(np.linalg.norm(w))
        grad = np.empty((n, self.block_size))
        bra = np.kron(w, self.target)
        for k in range(n, 0, -1):
            u, du = gates[k - 1]
            hi, lo = 2 ** (n - k), 2 ** (k - 1)
            pull = np.einsum(
                "bhjl,ahil->bjai",
                bra.conj().reshape(2, hi, 2, lo),
                states[k - 1].reshape(2, hi, 2, lo),
            ).reshape(16)
            grad[k - 1] = _cost_grad(f, pull, du)
            bra = _apply_pair_gate(bra, u.conj().T, k, n)
        return 2.0 * (1.0 - f), grad.reshape(-1)

    def _suffix_bras(self, rows, k):
        """Rows ``a``: ``(U_n ... U_{k+1})^dagger (|a> (x) target)``."""
        bras = np.zeros((2, 2 ** (self.n + 1)), dtype=np.complex128)
        bras[0, : 2**self.n] = self.target
        bras[1, 2**self.n:] = self.target
        for j in range(self.n, k, -1):
            gate_h = self.step_gate(rows[j - 1]).conj().T
            for a in range(2):
                bras[a] = _apply_pair_gate(bras[a], gate_h, j, self.n)
        return bras

    def block_cost_fn(self, params, k):
        """Closure giving cost and gradient as a function of step ``k``'s params.

        ``w_a(U) = <env_a, U>_F`` with the environments fixed, so one
        evaluation costs a gate build with its derivatives plus a few
        16-element dot products, independent of the register size.
        """
        rows = params.reshape(self.n, self.block_size)
        hi, lo = 2 ** (self.n - k), 2 ** (k - 1)
        prefix = _evolve([self.step_gate(r) for r in rows[: k - 1]], self.n).reshape(2, hi, 2, lo)
        suffix = self._suffix_bras(rows, k).conj().reshape(2, 2, hi, 2, lo)
        env = np.einsum("wbhjl,ahil->wbjai", suffix, prefix, optimize=True).reshape(2, 16)

        def fn(x):
            u, du = self.step_gate(x, jac=True)
            w = env @ u.reshape(16)
            f = float(np.linalg.norm(w))
            return 2.0 * (1.0 - f), _cost_grad(f, w.conj() @ env, du)

        return fn

    def block_slice(self, k):
        start = (k - 1) * self.block_size
        return slice(start, start + self.block_size)


def _cost_grad(f, pull, du):
    """Gradient of ``2 (1 - f)``, ``f = ||w||``, by the parameters of one gate.

    ``pull`` holds the 16 weights with ``w^H dw = <pull, dU>`` summed over
    entries, so ``d f = Re(w^H dw) / f``.  At ``f = 0``, where ``||w||`` has
    no derivative, the gradient is taken as zero.
    """
    if f == 0.0:
        return np.zeros(len(du))
    return (-2.0 / f) * (du.reshape(len(du), 16) @ pull).real


def _descend(engine: _CostEngine, params, max_sweeps, sweep_tol, inner_maxfev):
    """Back-and-forth block coordinate descent plus a joint polish.

    Each block solve is an L-BFGS-B run on one step's parameters with
    ``inner_maxfev`` as its ``maxfun`` budget, accepted only if it lowers
    the cost, so the recorded per-sweep cost sequence is non-increasing.
    After the sweeps, an L-BFGS-B run on all parameters refines the
    surviving point; it too is accepted only if it lowers the cost.
    """
    blocks = list(range(1, engine.n + 1))
    cost = engine.cost(params)
    history = [cost]
    converged = False
    for _ in range(max_sweeps):
        before = cost
        for block in blocks + blocks[::-1]:
            sl = engine.block_slice(block)
            res = minimize(
                engine.block_cost_fn(params, block),
                params[sl],
                jac=True,
                method="L-BFGS-B",
                options={"maxfun": inner_maxfev, "ftol": 1e-15, "gtol": 1e-12},
            )
            if res.fun < cost:
                params[sl] = res.x
                cost = float(res.fun)
        history.append(cost)
        if before - cost < sweep_tol:
            converged = True
            break
    if cost > 0.0:
        res = minimize(
            engine.cost_and_grad,
            params,
            jac=True,
            method="L-BFGS-B",
            options={"maxfun": 400 * engine.param_count(), "ftol": 1e-15, "gtol": 1e-12},
        )
        if res.fun < cost:
            params = res.x
            cost = float(res.fun)
            history.append(cost)
    return params, history, converged


def optimize_schedule(
    target: np.ndarray,
    n: int,
    aux: bool,
    restarts: int = 8,
    seed: int = 0,
    coupling_model: str = COUPLING_XXZ,
    max_sweeps: int = _MAX_SWEEPS,
    sweep_tol: float = _SWEEP_TOL,
    inner_maxfev: int = _INNER_MAXFEV,
) -> SynthesisResult:
    """Coordinate-descent search for couplings preparing ``target``.

    Per sweep, every step's couplings (plus its qubit and ancilla rotation
    angles when ``aux``) are minimized one block at a time by L-BFGS-B on
    the exact gradient, holding the rest fixed; ``inner_maxfev`` is each
    block solve's budget of cost-and-gradient evaluations (L-BFGS-B's
    ``maxfun``, checked between iterations).  Sweeps run back and forth, at
    most ``max_sweeps`` of them, until one lowers the cost by less than
    ``sweep_tol`` (``sweep_tol=0`` runs all ``max_sweeps``).  A closing
    L-BFGS-B polish of all parameters is kept only if it lowers the cost.  The whole descent is repeated from ``restarts`` random starting
    points (child seeds spawned from ``seed``) and the best run is returned.

    ``converged`` is False when the sweeps did not stall within
    ``max_sweeps``, and also when the best fidelity is 0: there the cost
    is flat (XXZ without ``aux`` conserves the excitation number, so it
    never leaves ``|0...0>``) and stalling says nothing about an optimum.

    The closing ancilla rotation is cost-neutral here because the free final
    ancilla state is already optimized in closed form, so it is left at
    identity in the returned schedule.
    """
    target = np.asarray(target, dtype=np.complex128).reshape(-1)
    if target.size != 2**n:
        raise ValueError(f"target has {target.size} amplitudes, expected 2**{n}")
    nrm = np.linalg.norm(target)
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"target must be normalized, got norm {nrm!r}")
    if coupling_model not in (COUPLING_XXZ, COUPLING_GENERAL):
        raise ValueError(f"unknown coupling model {coupling_model!r}")
    if restarts < 1:
        raise ValueError("need at least one restart")

    engine = _CostEngine(target, n, aux, coupling_model)
    children = np.random.SeedSequence(seed).spawn(restarts)
    best = None
    for child in children:
        rng = np.random.default_rng(child)
        params = np.zeros(engine.param_count())
        for k in range(n):
            sl = engine.block_slice(k + 1)
            block = rng.uniform(-np.pi, np.pi, size=engine.block_size)
            if aux:
                block[engine.nstep:] = rng.uniform(0.0, 2.0 * np.pi, size=6)
            params[sl] = block
        params, history, converged = _descend(
            engine, params, max_sweeps, sweep_tol, inner_maxfev
        )
        run = (history[-1], params, history, converged)
        if best is None or run[0] < best[0]:
            best = run

    _, params, history, converged = best
    joint = engine.generate(params)
    f, phi_final = fidelity_vs_target(joint, target)
    f = min(1.0, f)  # rounding can lift an exact preparation just above 1

    schedule = None
    if coupling_model == COUPLING_XXZ:
        coup, aang, qang = engine.unpack(params)
        schedule = CouplingSchedule(
            steps=[StepCoupling(float(r[0]), float(r[1])) for r in coup],
            aux_enabled=aux,
            aux_qubit=qang if aux else None,
            aux_ancilla=aang if aux else None,
        )
    return SynthesisResult(
        generated=joint,
        fidelity=f,
        cost=2.0 * (1.0 - f),
        optimal_phi_final=phi_final,
        iterations=len(history) - 1,
        restarts_used=restarts,
        converged=converged and f > 0.0,
        schedule=schedule,
        cost_history=history,
    )
