"""Sequential state synthesis with a restricted ancilla-qubit entangler.

A two-level ancilla interacts once with each qubit of an initially blank
register.  Each interaction step evolves the (ancilla, qubit k) pair under an
XXZ-type coupling::

    H(h1, h2) = h1 (XX + YY) + h2 ZZ

optionally augmented by unrestricted local rotations on both legs of every
step (one on the fresh qubit, one on the ancilla, applied just before the
entangler).  The ancilla starts in ``|0>``; with the rotations on, the one
before the first step covers any other start.  The free final ancilla state
is optimized in closed form, giving the cost ``2 (1 - F)`` with ``F`` the
modulus of the ancilla-contracted overlap against a fixed target register
state.

The unrestricted interaction, a free two-qubit unitary per step, is not
searched here: sequential preparations with a two-level ancilla are exactly
the bond-2 chains (Schoen et al., PRL 95, 110503 (2005)), so its optimum is
the cap-2 compression of :mod:`seqclone.compression`, the baseline the
restricted entangler is measured against.

The preparation and the target are both chains; no dense vector is built.
Step ``k`` emits qubit ``k`` through the bond-2 site
``A_k^i[a_out, a_in] = U_k[(a_out, i), (a_in, 0)]``.  Two routes find the
couplings:

* **By construction** (rotations on): the target is compressed to bond 2
  and left-canonicalized, and each site, last first, is an isometry that
  its step must realize up to a unitary gauge on the ancilla.
  :func:`fit_step` fits the step's 8 parameters to it by a small L-BFGS
  run, and the best gauge, a closed-form 2x2 polar factor, carries on to
  the next site (:func:`schedule_from_chain`).  Each fit starts where the
  previous one ended, its ancilla rotation re-expressed for the new gauge
  through :func:`zyz_angles`; fixed Kronecker points, not random draws,
  serve as fallback starts.  The step residuals certify the result: near
  0, the schedule prepares the bond-2 optimum.
* **By global search**, the fallback when a residual stays above 1e-12 and
  the only route with rotations off: one L-BFGS run on all parameters per
  random restart, on the exact gradient from two transfer passes, so a
  cost-and-gradient evaluation costs ``O(n D^2)`` for a target of bond
  ``D`` (see :class:`_CostEngine`).

Both use :mod:`seqclone.lbfgs`, the unbounded case of L-BFGS-B, and one
kernel, :func:`_step_columns`: since each qubit enters in ``|0>``, it builds
only the columns ``|a_in, 0>`` of the step unitaries and their derivatives,
for one step or all steps in one batch, rotations on or off.  Only numpy is
needed: no part of the package imports scipy.

Layout conventions follow :mod:`seqclone.mps`: the register reads
``i_n ... i_1``, most significant first, and step ``k`` emits qubit ``k``,
so the sites come last step first.  The joint chain puts the ancilla's site
in front, so its dense expansion is indexed ancilla-first.  Evolution time
is absorbed into the couplings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .compression import METHOD_VARIATIONAL_SEEDED, compress
from .errors import check_fidelity
from .lbfgs import minimize
from .mps import MatrixProductState, canonicalize, from_statevector, norm as mps_norm

PAULI = (
    np.eye(2, dtype=np.complex128),
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)

COUPLING_XXZ = "xxz"

_SWEEP_TOL = 1e-10
_MAX_SWEEPS = 200
_INNER_MAXFEV = 500

# constructive route: a step fit stops once its residual is at most
# _STEP_STOP, and it certifies the step at _STEP_TOL; each step gets up to
# _STEP_STARTS runs of at most _STEP_MAXFUN evaluations.  A residual r leaves
# the carried gauge off by about sqrt(r), and the next step must absorb that
# tilt in its ancilla angles, where theta near 0 hides its phase: at a stop
# of 1e-20 the |0> and |1> cloners' fits stalled at 1e-20 to 5e-16, at
# 1e-24 every step ends at most 1e-20
_STEP_STOP = 1e-24
_STEP_TOL = 1e-12
_STEP_STARTS = 20
_STEP_MAXFUN = 2000

# |0>: the ancilla's start, and each qubit's before its step
_ZERO = np.array([1.0, 0.0], dtype=np.complex128)
_IDENTITY = np.eye(2, dtype=np.complex128)


@dataclass(frozen=True)
class StepCoupling:
    """Couplings of one interaction step: ``h1`` for XX+YY, ``h2`` for ZZ."""

    h1: float
    h2: float

    def __post_init__(self):
        if not (np.isfinite(self.h1) and np.isfinite(self.h2)):
            raise ValueError("couplings must be finite")


@dataclass
class CouplingSchedule:
    """Full parameterization of an ``n``-step sequential preparation.

    ``aux_qubit[k]`` and ``aux_ancilla[k]`` hold ZYZ Euler angles of the
    local rotations applied to qubit ``k + 1`` and to the ancilla right
    before interaction step ``k + 1``; they are skipped unless
    ``aux_enabled``.

    Rotations on *both* legs of every step are needed for the restricted
    entangler to be useful: dressing only the qubit legs leaves a cost
    plateau far above what the dressed interaction class can reach.
    """

    steps: list[StepCoupling]
    aux_enabled: bool = False
    aux_qubit: np.ndarray | None = None
    aux_ancilla: np.ndarray | None = None

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
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} angles must be finite")


@dataclass
class SynthesisResult:
    """Best schedule found by :func:`optimize_schedule`; its cost is
    ``2 (1 - fidelity)``."""

    generated: MatrixProductState
    fidelity: float
    optimal_phi_final: np.ndarray
    iterations: int
    converged: bool = True
    schedule: CouplingSchedule | None = None
    cost_history: list[float] = dc_field(default_factory=list)
    # the constructive route's residual per step (aux on), else None
    step_residuals: np.ndarray | None = None

    def __post_init__(self):
        check_fidelity(self.fidelity)


def xxz_hamiltonian(h1: float, h2: float) -> np.ndarray:
    """``h1 (XX + YY) + h2 ZZ`` on the (ancilla, qubit) pair, ancilla first."""
    return (
        h1 * (np.kron(PAULI[1], PAULI[1]) + np.kron(PAULI[2], PAULI[2]))
        + h2 * np.kron(PAULI[3], PAULI[3])
    )


def xxz_unitary(h1, h2) -> np.ndarray:
    """``exp(-1j * xxz_hamiltonian(h1, h2))`` in closed form.

    The generator is block diagonal: ``|00>`` and ``|11>`` pick up the phase
    ``exp(-1j h2)`` while the flip-flop block rotates by ``2 h1`` under an
    ``exp(+1j h2)`` phase.  Matches the eigendecomposition route to machine
    precision at a fraction of the cost.  Arrays of couplings of shape ``S``
    broadcast to unitaries of shape ``S + (4, 4)``.
    """
    edge = np.exp(-1j * np.asarray(h2, dtype=float))
    mid = edge.conj()
    turn = 2.0 * np.asarray(h1, dtype=float)
    diag, flip = mid * np.cos(turn), mid * (-1j * np.sin(turn))
    u = np.zeros(diag.shape + (4, 4), dtype=np.complex128)
    u[..., 0, 0] = u[..., 3, 3] = edge
    u[..., 1, 1] = u[..., 2, 2] = diag
    u[..., 1, 2] = u[..., 2, 1] = flip
    return u


# generators of h1 and h2; they commute, so dU/dh_j = -1j G_j U
_XXZ_TERMS = np.array([xxz_hamiltonian(1.0, 0.0), xxz_hamiltonian(0.0, 1.0)])


# ZYZ rotation entries, flattened row-major: entry e is
# cos(theta/2 + _ZYZ_SHIFTS[e]) exp(angles @ _ZYZ_PHASES[:, e]), so
# [ct, -st, st, ct] times [e^{-i(phi+lam)/2}, e^{-i(phi-lam)/2}, and conjugates];
# 1j times the real product with _ZYZ_TURNS gives the exponent's bits at a third of the cost
_ZYZ_SHIFTS = np.array([0.0, 0.5, -0.5, 0.0]) * np.pi
_ZYZ_PHASES = -0.5j * np.array([[0, 0, 0, 0], [1, 1, -1, -1], [1, -1, 1, -1]])
_ZYZ_TURNS = _ZYZ_PHASES.imag.copy()


def euler_zyz(angles, jac=False):
    """SU(2) rotations ``Rz(phi) Ry(theta) Rz(lam)``, global phase dropped.

    ``angles`` holds ``(theta, phi, lam)`` along its last axis: a shape
    ``S + (3,)`` gives rotations of shape ``S + (2, 2)``.  With ``jac`` the
    result is ``(rot, drot)``, ``drot`` of shape ``S + (3, 2, 2)`` holding
    the derivatives by theta, phi and lam.
    """
    angles = np.asarray(angles, dtype=float)
    shape = angles.shape[:-1] + (2, 2)
    phases = np.exp(1j * (angles @ _ZYZ_TURNS))
    half = 0.5 * angles[..., :1] + _ZYZ_SHIFTS
    rot = np.cos(half) * phases
    if not jac:
        return rot.reshape(shape)
    # phi and lam only enter the phases; theta only the magnitudes
    drot = rot[..., None, :] * _ZYZ_PHASES
    drot[..., 0, :] = -0.5 * np.sin(half) * phases
    return rot.reshape(shape), drot.reshape(shape[:-2] + (3, 2, 2))


def zyz_angles(u) -> np.ndarray:
    """ZYZ angles ``(theta, phi, lam)`` of the 2x2 unitaries ``u``, the
    inverse of :func:`euler_zyz` up to a global phase.

    ``u`` of shape ``S + (2, 2)`` gives angles of shape ``S + (3,)``, with
    ``theta`` in ``[0, pi]``.  The phase ``sqrt(det u)`` is divided out,
    leaving ``[[a, -conj(b)], [b, conj(a)]]`` with ``a = cos(theta/2)
    e^{-i(phi+lam)/2}`` and ``b = sin(theta/2) e^{i(phi-lam)/2}``; each of
    ``a`` and ``b`` is read from both of its entries.  At ``theta = 0`` only
    ``phi + lam`` is fixed, and at ``theta = pi`` only ``phi - lam``; the
    free half is then 0.
    """
    u = np.asarray(u, dtype=np.complex128)
    det = u[..., 0, 0] * u[..., 1, 1] - u[..., 0, 1] * u[..., 1, 0]
    su = u * np.exp(-0.5j * np.angle(det))[..., None, None]
    a = 0.5 * (su[..., 0, 0] + su[..., 1, 1].conj())
    b = 0.5 * (su[..., 1, 0] - su[..., 0, 1].conj())
    arg_a, arg_b = np.angle(a), np.angle(b)
    return np.stack([2.0 * np.arctan2(np.abs(b), np.abs(a)), arg_b - arg_a, -arg_a - arg_b], -1)


def _step_columns(rows, ancilla_in=_IDENTITY, jac=False):
    """The columns ``|a_in, 0>`` of the step unitaries, built in one batch.

    Each qubit enters its step in ``|0>``, so only the columns
    ``C[(a_out, i), r] = U (ancilla_in[:, r] (x) |0>)`` of a step unitary
    ``U`` count, and the whole ``U`` is never built.  ``rows`` has shape
    ``S + (8,)``, ``S`` the step axes (``()`` for one step), holding the
    couplings ``(h1, h2)`` and then the ancilla and the qubit ZYZ angles of
    the local rotations applied before the entangler, or ``S + (2,)`` for
    the couplings alone.  ``ancilla_in`` is ``2 x r``.  ``C`` has shape
    ``S + (4, r)``; with ``jac`` the result is ``(C, dC)``, ``dC[..., p, :,
    :]`` the derivative by the ``p``-th entry of a row.

    ``C = E(h1, h2) (R_a ancilla_in (x) R_q |0>)``: the angles enter
    through the pair inputs alone, and the couplings give ``-1j G_j C``.
    """
    steps, rdim = rows.shape[:-1], ancilla_in.shape[1]
    aux = rows.shape[-1] == 8
    u = xxz_unitary(rows[..., 0], rows[..., 1])
    # the pair inputs are y[:, r] (x) q, with q laid out as S + (1, 2, 1) on the axes (b, j, r)
    y, q = ancilla_in, _ZERO[None, :, None]
    if aux:
        rots, drots = euler_zyz(rows[..., 2:].reshape(steps + (2, 3)), jac=True)
        y, q = rots[..., 0, :, :] @ ancilla_in, rots[..., 1, None, :, :1]
    # the pair inputs, then their derivatives by the six angles
    inputs = np.empty(steps + (7 if aux and jac else 1, 2, 2, rdim), dtype=np.complex128)
    inputs[..., 0, :, :, :] = y[..., :, None, :] * q
    if aux and jac:
        dy = drots[..., 0, :, :, :] @ ancilla_in
        inputs[..., 1:4, :, :, :] = dy[..., None, :] * q[..., None, :, :, :]
        inputs[..., 4:, :, :, :] = y[..., None, :, None, :] * drots[..., 1, :, None, :, :1]
    cols = u[..., None, :, :] @ inputs.reshape(steps + (-1, 4, rdim))
    c = cols[..., 0, :, :]
    if not jac:
        return c
    dc = np.concatenate([-1j * (_XXZ_TERMS @ c[..., None, :, :]), cols[..., 1:, :, :]], axis=-3)
    return c, dc


def _chain_sites(cols) -> np.ndarray:
    """Bond-2 sites ``A^i[a_out, a_in] = C[(a_out, i), a_in]`` of the step
    columns ``(n, 4, 2)``, last step first, of shape ``(n, 2, 2, 2)`` and
    indexed ``(i, a_out, a_in)``."""
    return cols[::-1].reshape(-1, 2, 2, 2).transpose(0, 2, 1, 3)


def _joint_chain(sites) -> MatrixProductState:
    """The joint chain of the register ``sites``: the ancilla's site in
    front, the ancilla's start ``|0>`` folded into the last site."""
    sites = list(sites)
    sites[-1] = sites[-1] @ _ZERO[:, None]
    return MatrixProductState(sites=[np.eye(2, dtype=np.complex128).reshape(2, 1, 2), *sites])


def sequential_generate(schedule: CouplingSchedule, n: int) -> MatrixProductState:
    """Joint (ancilla, register) state after all interaction steps, as a chain.

    Starts from ``|0> (x) |0...0>``; step ``k`` entangles the ancilla with
    qubit ``k`` (local aux rotations first, when enabled).  The chain has
    ``n + 1`` sites of bond 2, the ancilla's first, so ``to_statevector``
    gives the ancilla-first joint vector; the start ``|0>`` is folded into
    the last site, the first step's.
    """
    if len(schedule.steps) != n:
        raise ValueError(
            f"schedule has {len(schedule.steps)} steps but the register has {n} qubits"
        )
    return _joint_chain(_chain_sites(_step_columns(_params(schedule))))


def _params(schedule: CouplingSchedule) -> np.ndarray:
    """The parameter rows of ``schedule``, one per step: ``(h1, h2)``, then
    with ``aux_enabled`` the ancilla and the qubit angles."""
    couplings = np.array([(s.h1, s.h2) for s in schedule.steps], dtype=float)
    if not schedule.aux_enabled:
        return couplings
    return np.hstack([couplings, schedule.aux_ancilla, schedule.aux_qubit])


# --- optimization -------------------------------------------------------------


class _CostEngine:
    """Cost ``2 (1 - F)`` of a flat parameter vector, and its exact gradient.

    ``target`` is the register state as a chain.  The parameters are ``n``
    rows of ``block_size``, one per step: the couplings ``(h1, h2)``, then
    the ancilla and the qubit ZYZ angles when ``aux``.
    """

    def __init__(self, target: MatrixProductState, aux):
        self.n = target.n_qubits
        self.aux = aux
        self.block_size = 8 if aux else 2
        self._conj = [t.conj() for t in target.sites]
        # conj(T^i) stacked for the right pass: rows (i, right bond), columns left bond
        self._right = [t.transpose(0, 2, 1).reshape(-1, t.shape[1]) for t in self._conj]

    def param_count(self):
        return self.n * self.block_size

    def columns(self, params, jac=False):
        """The step columns of all ``n`` steps (with their derivatives when ``jac``)."""
        return _step_columns(params.reshape(self.n, self.block_size), jac=jac)

    def right_pass(self, sites):
        """Right environments of the generated ``sites`` and the ancilla vector ``w``.

        ``w_a = sum_q joint[a, q] conj(target[q])``.  Contracting from the
        right, the ``2 x 1`` column ``R = |0>`` becomes
        ``sum_i A^i R T^i{dagger}`` site by site, ending ``2 x 1`` on the
        target's left edge as ``w``; ``envs[j]`` is ``R`` right of site ``j``.
        """
        env = _ZERO[:, None]
        envs = [None] * self.n
        for j in range(self.n - 1, -1, -1):
            envs[j] = env
            env = (sites[j] @ env).transpose(1, 0, 2).reshape(2, -1) @ self._right[j]
        return envs, env[:, 0]

    def cost_and_grad(self, params):
        """Cost and gradient over all parameters in two passes along the chain.

        The right pass gives ``w`` and the environments ``R_j``.  A left pass
        seeded with the ``2 x 1`` column ``E = conj(w)`` carries
        ``E -> sum_i A^i{T} E conj(T^i)`` and meets each ``R_j`` in the
        weights ``pull_j^i = E conj(T^i) R_j^T``, so ``w^H dw = <pull_j, dA_j>``
        with ``dA_j`` the sites of the column derivatives ``dC``.  Then
        ``dF = Re(w^H dw) / F``, taken as zero at ``F = 0``.
        """
        n = self.n
        c, dc = self.columns(params, jac=True)
        sites = _chain_sites(c)
        envs, w = self.right_pass(sites)
        f = float(np.linalg.norm(w))
        if f == 0.0:
            return 2.0, np.zeros(self.param_count())
        pulls = np.empty((n, 2, 2, 2), dtype=np.complex128)
        env = w.conj()[:, None]
        for j in range(n):
            z = env @ self._conj[j]
            pulls[j] = z @ envs[j].T
            env = sites[j].reshape(4, 2).T @ z.reshape(4, -1)
        # site j is step n - j; order the weights like dC's rows (a_out, i) and column a_in
        weights = pulls[::-1].transpose(0, 2, 1, 3).reshape(n, 8, 1)
        grad = (dc.reshape(n, self.block_size, 8) @ weights).real
        return 2.0 * (1.0 - f), (-2.0 / f) * grad.reshape(-1)


def _descend(engine: _CostEngine, params, max_sweeps, sweep_tol, inner_maxfev):
    """One L-BFGS run on all parameters; returns (params, history, converged).

    ``converged`` is False when the run spent its budget or never left its
    start.  The budget binds the run's cost-and-gradient evaluations:
    ``maxfun`` is ``2 n max_sweeps inner_maxfev``.  ``history`` holds the
    starting cost and the cost after each iteration, as the optimizer
    reports them.  The run goes through the module attribute ``minimize``,
    where tests and tracers patch it.
    """
    history = []
    res = minimize(
        engine.cost_and_grad, params, ftol=sweep_tol,
        maxfun=2 * engine.n * max_sweeps * inner_maxfev, callback=history.append,
    )
    return res.x, history, res.status != 1 and res.nit > 0


def _random_starts(engine: _CostEngine, restarts, seed):
    """Flat starting parameters of ``restarts`` runs, one per child seed of ``seed``.

    Each step's row is drawn uniformly from ``[-pi, pi)``; with ``aux`` its
    six angles are then redrawn from ``[0, 2 pi)``.
    """
    starts = []
    for child in np.random.SeedSequence(seed).spawn(restarts):
        rng = np.random.default_rng(child)
        rows = np.zeros((engine.n, engine.block_size))
        for row in rows:
            row[:] = rng.uniform(-np.pi, np.pi, size=engine.block_size)
            if engine.aux:
                row[2:] = rng.uniform(0.0, 2.0 * np.pi, size=6)
        starts.append(rows.reshape(-1))
    return starts


def _restarts(engine: _CostEngine, starts, max_sweeps, sweep_tol, inner_maxfev):
    """``(params, history, converged)`` of the best :func:`_descend` run
    over ``starts``; on a tie the earlier run stays."""
    best = None
    for params in starts:
        run = _descend(engine, params, max_sweeps, sweep_tol, inner_maxfev)
        if best is None or run[1][-1] < best[1][-1]:
            best = run
    return best


def _schedule_of(rows, aux) -> CouplingSchedule:
    """The schedule of parameter rows: ``(h1, h2)``, then with ``aux`` the
    ancilla and the qubit angles."""
    return CouplingSchedule(
        steps=[StepCoupling(float(h1), float(h2)) for h1, h2 in rows[:, :2]],
        aux_enabled=aux,
        aux_qubit=rows[:, 5:] if aux else None,
        aux_ancilla=rows[:, 2:5] if aux else None,
    )


def _result(engine: _CostEngine, params, history, iterations, converged, residuals=None):
    """The :class:`SynthesisResult` of the flat parameters ``params``.

    ``history`` None stands for the cost of ``params`` alone.
    """
    schedule = _schedule_of(params.reshape(engine.n, engine.block_size), engine.aux)
    sites = _chain_sites(engine.columns(params))
    _, w = engine.right_pass(sites)
    f = float(np.linalg.norm(w))
    final_ancilla = w / f if f > 0 else w
    if history is None:
        history = [2.0 * (1.0 - f)]
    f = min(f, 1.0)  # rounding can lift an exact preparation just above 1; NaN stays
    return SynthesisResult(
        generated=_joint_chain(sites),
        fidelity=f,
        optimal_phi_final=final_ancilla,
        iterations=iterations,
        converged=converged,
        schedule=schedule,
        cost_history=history,
        step_residuals=residuals,
    )


# --- constructive route -------------------------------------------------------


def _polar(k):
    """Polar factor and nuclear norm of a 2x2 matrix ``k``, in closed form.

    ``||k||_* = sqrt(||k||_F^2 + 2 |det k|)``, and the unitary
    ``W = (k + e^{i arg det k} conj(cof k)) / ||k||_*`` maximizes
    ``Re tr(W^H k)``.  For a singular ``k`` any phase gives a polar factor;
    1 is taken, and ``k = 0`` gives the identity.
    """
    (a, b), (c, d) = k.tolist()
    det = a * d - b * c
    size = abs(det)
    nuclear = math.sqrt(abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2 + 2.0 * size)
    if nuclear == 0.0:
        return np.eye(2, dtype=np.complex128), 0.0
    phase = det / size if size > 0.0 else 1.0
    cofactor = np.array([[d, -c], [-b, a]]).conj()
    return (k + phase * cofactor) / nuclear, nuclear


class _StepCost:
    """Residual of one aux-on step against a step isometry, with its gradient.

    ``v`` is ``4 x r`` with rows ``(a_out, i)``; ``ancilla_in`` (``2 x r``,
    orthonormal columns) holds the ancilla states that enter the step.  The
    step's columns ``C[:, r] = U (ancilla_in[:, r] (x) |0>)`` and their
    derivatives by the 8 parameters come from :func:`_step_columns`.  With
    ``K = sum_{i,r} C[(., i), r] v[(., i), r]^H`` and its polar factor
    ``W``, the best ancilla gauge, the residual is
    ``1/2 ||C - (W (x) I) v||^2``, equal to ``r - ||K||_*``.  It is computed
    as the norm of the difference, which keeps its digits below 1e-16, where
    ``r - ||K||_*`` stalls near 1e-14.  Its gradient is ``-Re tr(W^H dK)``,
    since ``W`` is optimal and its own change drops out; it is taken as
    ``Re <C - (W (x) I) v, dC>``, the same because the columns keep their
    norm.
    """

    def __init__(self, v, ancilla_in):
        self.rows = v.reshape(2, -1)  # (a_out, (i, r))
        self.rows_h = self.rows.conj().T
        self.ancilla_in = ancilla_in

    def __call__(self, p):
        return self.evaluate(p)[:2]

    def evaluate(self, p):
        """``(residual, gradient, W)`` at the parameters ``p``."""
        c, dc = _step_columns(p, self.ancilla_in, jac=True)
        w, _ = _polar(c.reshape(2, -1) @ self.rows_h)
        diff = c - (w @ self.rows).reshape(4, -1)
        grad = (dc.reshape(8, -1) @ diff.reshape(-1).conj()).real
        return 0.5 * float(np.vdot(diff, diff).real), grad, w


def _fit_done(residual):
    return residual <= _STEP_STOP


def _kronecker_increments(dim):
    """Increments ``alpha_j = g^-(j+1)`` of Roberts' additive recurrence in
    ``dim`` dimensions, ``g`` the positive root of ``x^(dim+1) = x + 1``,
    as fractions of ``2^64``."""
    g = 2.0
    for _ in range(100):
        g = (1.0 + g) ** (1.0 / (dim + 1))
    return [round(g ** -(j + 1) * 2.0**64) for j in range(dim)]


_KRONECKER = _kronecker_increments(8)


def _fallback_start(seed, k):
    """Start ``k`` of a step fit's fallback runs under ``seed``: point
    ``m = 20 seed + k + 1`` of the Kronecker sequence ``frac(1/2 + m alpha)``
    over the 8 parameters, the couplings scaled to ``[-pi, pi)`` and the
    angles to ``[0, 2 pi)``.  Integer steps keep every seed exact, and no
    random generator is needed."""
    m = seed * _STEP_STARTS + k + 1
    u = np.array([((1 << 63) + m * a) % (1 << 64) for a in _KRONECKER]) / 2.0**64
    return 2.0 * np.pi * u - np.pi * (np.arange(8) < 2)


def _warm_start(row, gauge_before, gauge_after):
    """The row a step fit starts from: the previous step's ``row``, with its
    ancilla rotation re-expressed as ``R_a gauge_before gauge_after^H`` so
    that on the ancilla states ``gauge_after`` the step's pair input is the
    previous step's on ``gauge_before``.  The couplings and the qubit angles
    stay; :func:`zyz_angles` drops a global phase, which the fit's polar
    gauge takes up."""
    rot = euler_zyz(row[2:5]) @ gauge_before @ gauge_after.conj().T
    return np.concatenate([row[:2], zyz_angles(rot), row[5:]])


def fit_step(v, ancilla_in, start=None, seed=0):
    """Fit one aux-on step to the step isometry ``v``; returns
    ``(params, residual, gauge, iterations)``.

    ``v`` (``4 x r``, ``r`` = 1 or 2, rows ``(a_out, i)``) is what the step
    must map the ancilla states ``ancilla_in[:, r]`` (``2 x r``, orthonormal
    columns) to, with the qubit entering in ``|0>``, up to a unitary
    ``gauge`` on the outgoing ancilla.  ``params`` are the step's 8
    parameters in the order of a schedule row: ``(h1, h2)``, the ancilla
    and then the qubit ZYZ angles.  ``residual`` is ``1/2 ||C - (gauge (x)
    I) v||^2`` for the step's columns ``C`` (see :class:`_StepCost`), and
    ``gauge`` is its closed-form polar factor.

    Each run is one :func:`seqclone.lbfgs.minimize`, stopped once its
    residual is at most 1e-24.  The first starts from the row ``start``
    when one is given.  Fallback runs follow, up to 20 runs in all, only
    while no run has ended at a residual of at most 1e-12; they start from
    deterministic points of a Kronecker sequence offset by ``seed``
    (:func:`_fallback_start`).  The best run is returned, and
    ``iterations`` counts the iterations of all runs.
    """
    cost = _StepCost(np.asarray(v, dtype=np.complex128), ancilla_in)
    best, iterations = None, 0
    for k in range(_STEP_STARTS) if start is None else range(-1, _STEP_STARTS - 1):
        x0 = start if k < 0 else _fallback_start(seed, k)
        res = minimize(cost, x0, ftol=0.0, maxfun=_STEP_MAXFUN, callback=_fit_done)
        iterations += res.nit
        if best is None or res.fun < best.fun:
            best = res
        if best.fun <= _STEP_TOL:
            break
    residual, _, gauge = cost.evaluate(best.x)
    return best.x, residual, gauge, iterations


def schedule_from_chain(chain: MatrixProductState, seed: int = 0):
    """The aux-on schedule of a left-canonical chain of bond at most 2, fitted
    one step at a time; returns ``(schedule, residuals, iterations)``.

    A two-level ancilla prepares exactly the bond-2 chains (Schoen et al.,
    PRL 95, 110503 (2005)).  Read last site first, each left-orthonormal
    site ``t`` is the isometry ``v[(a_out, i), a_in] = t[i, a_out, a_in]``
    (``a_out`` padded with zeros to 2) that step must realize, up to a
    unitary gauge on each bond.  :func:`fit_step` fits the step to ``v`` on
    the ancilla states the earlier steps leave, the columns of the previous
    gauge (``|0>`` before the first step), and its closed-form polar gauge
    (Evenbly & Vidal, PRB 79, 144108 (2009)) carries on to the next site.

    Consecutive sites of a cloner chain are close, so each fit after the
    first starts where the previous one ended (:func:`_warm_start`): the
    previous step's couplings and qubit angles, and its ancilla rotation
    ``R_a`` re-expressed as ``R_a W_{s-1} W_s^H`` for the gauges ``W`` the
    previous step took in and gave out, so that the pair input does not
    change.  Only a fit whose first run ends above 1e-12 runs the fallback
    starts of ``seed``; the first fit starts from them.

    ``residuals`` holds each step's residual in step order, and
    ``iterations`` the L-BFGS iterations of all fits.  The residuals are a
    certificate: the schedule's error against the chain,
    ``1 - |<phi (x) chain|prepared>|`` at the best final ancilla ``phi``,
    is at most ``(sum_k sqrt(residual_k))^2``.
    """
    chain.require_canonical("constructive synthesis")
    if chain.max_bond > 2:
        raise ValueError(f"a two-level ancilla prepares bond 2 at most, got {chain.max_bond}")
    n = chain.n_qubits
    rows, residuals = np.empty((n, 8)), np.empty(n)
    before = gauge = np.eye(2, dtype=np.complex128)
    start, iterations = None, 0
    for step, t in enumerate(reversed(chain.sites)):
        _, left, right = t.shape
        v = np.zeros((2, 2, right), dtype=np.complex128)
        v[:left] = t.transpose(1, 0, 2)
        if step:
            start = _warm_start(rows[step - 1], before, gauge)
        before = gauge
        rows[step], residuals[step], gauge, its = fit_step(
            v.reshape(4, right), gauge[:, :right], start, seed
        )
        iterations += its
    return _schedule_of(rows, True), residuals, iterations


def _bond_two_chain(target: MatrixProductState) -> MatrixProductState:
    """The seeded cap-2 compression of ``target``, left-canonical and normalized."""
    chain, _ = compress(target, 2, METHOD_VARIATIONAL_SEEDED)
    canonicalize(chain.sites, +1, normalize=True)
    return chain


def optimize_schedule(
    target: MatrixProductState | np.ndarray,
    n: int,
    aux: bool,
    restarts: int = 8,
    seed: int = 0,
    max_sweeps: int = _MAX_SWEEPS,
    sweep_tol: float = _SWEEP_TOL,
    inner_maxfev: int = _INNER_MAXFEV,
) -> SynthesisResult:
    """Couplings preparing ``target``: built step by step, else searched.

    ``target`` is the ``n``-qubit register state as a chain; a dense vector
    is decomposed once by :func:`~seqclone.mps.from_statevector`.

    With ``aux`` the constructive route runs first.  The target is
    compressed to bond 2 (seeded sweeping, the unrestricted optimum of a
    two-level ancilla), left-canonicalized, and :func:`schedule_from_chain`
    fits the steps to it one at a time.  When every step residual is at
    most 1e-12 (``step_residuals``), the residuals certify that the
    schedule prepares the compressed chain, and it is returned with
    ``converged`` True, ``iterations`` the L-BFGS iterations of all step
    fits and ``cost_history`` its cost alone.

    Otherwise, and always without ``aux``, the global search runs: one
    L-BFGS run (:func:`seqclone.lbfgs.minimize`) on all parameters (every
    step's couplings, plus its ancilla and qubit rotation angles when
    ``aux``) on the exact gradient of the cost ``2 (1 - F)``, from
    ``restarts`` random starting points (child seeds spawned from ``seed``)
    and, with ``aux``, once more from the constructed schedule, so the
    result is never worse than the random restarts alone.  The best run is
    returned; its ``cost_history`` holds the starting cost and the cost
    after each iteration, and ``iterations`` counts its iterations.  The
    keywords, which govern this search alone, keep the names of the block
    sweeps it replaced and map onto L-BFGS as:

    * ``2 n max_sweeps inner_maxfev`` cost-and-gradient evaluations, the
      budget the sweeps had, is ``maxfun``;
    * ``sweep_tol`` is ``ftol``: for a cost of at most 1 the run stops once
      an iteration lowers the cost by less than ``sweep_tol``
      (``sweep_tol=0`` runs until the gradient vanishes, the line search
      fails or the budget is spent);
    * the gradient test is fixed at ``max |g| <= 1e-12``
      (:data:`seqclone.lbfgs.GTOL`).

    ``converged`` is then False when the best run stopped on its budget or
    never left its start: a flat cost (XXZ without ``aux`` conserves the
    excitation number, so it never leaves ``|0...0>``) says nothing about
    an optimum.  ``generated`` is the joint chain of
    :func:`sequential_generate`.

    The schedule has no closing ancilla rotation: it would be cost-neutral,
    since the free final ancilla state is optimized in closed form.
    """
    if not isinstance(target, MatrixProductState):
        target = from_statevector(target)
    if target.n_qubits != n:
        raise ValueError(f"target has {target.n_qubits} qubits, expected {n}")
    nrm = mps_norm(target)
    if not abs(nrm - 1.0) <= 1e-10:  # also rejects NaN and inf
        raise ValueError(f"target must be normalized, got norm {nrm!r}")
    if restarts < 1:
        raise ValueError("need at least one restart")
    if max_sweeps < 1 or inner_maxfev < 1:
        raise ValueError(
            f"max_sweeps and inner_maxfev must be >= 1, got {max_sweeps} and {inner_maxfev}"
        )
    if not (math.isfinite(sweep_tol) and sweep_tol >= 0.0):
        raise ValueError(f"sweep_tol must be finite and >= 0, got {sweep_tol!r}")

    engine = _CostEngine(target, aux)
    constructed, residuals = [], None
    if aux:
        schedule, residuals, iterations = schedule_from_chain(_bond_two_chain(target), seed)
        constructed = [_params(schedule).reshape(-1)]
        if residuals.max() <= _STEP_TOL:
            return _result(engine, constructed[0], None, iterations, True, residuals)
    starts = _random_starts(engine, restarts, seed) + constructed
    params, history, converged = _restarts(engine, starts, max_sweeps, sweep_tol, inner_maxfev)
    return _result(engine, params, history, len(history) - 1, converged, residuals)
