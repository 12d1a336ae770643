"""Dense reference constructions, for tests only.

The cloner output sums ``np.kron`` products over every arrangement of the
symmetrized clone and anticlone blocks, so it shares no code with the
counter chain that ``seqclone.cloning`` builds the state from.  Costs
``O(2^n)`` per term; use it for ``n <= 15``.

The sequential step unitaries of a canonical chain, and the joint state
they prepare, check that a chain of bond ``D`` is what a ``D``-level
ancilla emits (Schoen et al., PRL 95, 110503 (2005)).
"""

from __future__ import annotations

import itertools
from functools import reduce

import numpy as np

from seqclone.cloning import KET_ONE, KET_ZERO, GMSpec, PureQubit, gm_coefficients
from seqclone.mps import MatrixProductState

_NORM_TOL = 1e-12


def symmetric_state(
    count_a: int, state_a: PureQubit, count_b: int, state_b: PureQubit
) -> np.ndarray:
    """Normalized equal-weight superposition of all distinct arrangements of
    ``count_a`` qubits in ``state_a`` and ``count_b`` qubits in ``state_b``.

    The two states must be orthogonal, which makes the arrangements mutually
    orthogonal and the normalization exact.
    """
    if count_a < 0 or count_b < 0:
        raise ValueError("copy counts must be non-negative")
    n = count_a + count_b
    if n < 1:
        raise ValueError("need at least one qubit")
    ip = np.vdot(state_a.vector, state_b.vector)
    if abs(ip) > _NORM_TOL:
        raise ValueError(f"states must be orthogonal, got |<a|b>| = {abs(ip):.3e}")
    va, vb = state_a.vector, state_b.vector
    amps = np.zeros(2**n, dtype=np.complex128)
    for b_positions in itertools.combinations(range(n), count_b):
        marked = set(b_positions)
        factors = [vb if q in marked else va for q in range(n)]
        amps += reduce(np.kron, factors)
    return amps / np.linalg.norm(amps)


def gm_basis_output(m: int, bit: int) -> np.ndarray:
    """Cloner output for computational-basis input ``|bit>``."""
    coeffs = gm_coefficients(m)
    kept, flipped = (KET_ZERO, KET_ONE) if bit == 0 else (KET_ONE, KET_ZERO)
    amps = np.zeros(2 ** (2 * m - 1), dtype=np.complex128)
    for j in range(m):
        clones = symmetric_state(m - j, kept, j, flipped)
        if m > 1:
            anticlones = symmetric_state(m - j - 1, flipped, j, kept)
        else:
            anticlones = np.ones(1, dtype=np.complex128)
        amps += coeffs[j] * np.kron(clones, anticlones)
    return amps


def dense_gm_state(spec: GMSpec) -> np.ndarray:
    """``alpha GM(|0>) + beta GM(|1>)`` summed from the basis outputs."""
    return (
        spec.input.alpha * gm_basis_output(spec.clones, 0)
        + spec.input.beta * gm_basis_output(spec.clones, 1)
    )


def reduced_qubit_density(state: np.ndarray, qubit_axis: int, n: int) -> np.ndarray:
    """2x2 reduced density matrix of one qubit of an ``n``-qubit pure state.

    ``qubit_axis`` counts from the left (most significant) ket label.
    """
    tensor = np.asarray(state, dtype=np.complex128).reshape((2,) * n)
    rest = np.moveaxis(tensor, qubit_axis, 0).reshape(2, -1)
    return rest @ rest.conj().T


def dense_clone_fidelity(spec: GMSpec, clone_index: int) -> float:
    """``<psi| rho_clone |psi>`` by a brute-force partial trace of the dense state."""
    rho = reduced_qubit_density(dense_gm_state(spec), clone_index - 1, spec.qubits)
    psi = spec.input.vector
    return float(np.real(np.vdot(psi, rho @ psi)))


def extract_step_unitaries(chain: MatrixProductState) -> list[np.ndarray]:
    """Step unitaries that generate a canonical ``chain`` sequentially.

    Each is a ``2D x 2D`` unitary on the (ancilla, qubit) pair, ancilla
    index first, with ``D`` the chain's largest bond.  Column ``2a`` (the
    input ``|a> (x) |0>``) of a step holds the stacked pair of site
    matrices, zero-padded to ``D``; a complete QR fills the other columns
    with an orthonormal basis of the rest.  The list is ordered by
    application: the first entry emits the last stored site.
    """
    chain.require_canonical("sequential extraction")
    dim = chain.max_bond
    unitaries = []
    for t in reversed(chain.sites):
        left, right = t.shape[1:]
        stacked = np.zeros((2 * dim, right), dtype=np.complex128)
        stacked[: 2 * left] = t.transpose(1, 0, 2).reshape(2 * left, right)
        inputs = np.zeros(2 * dim, dtype=bool)
        inputs[: 2 * right : 2] = True
        step = np.empty((2 * dim, 2 * dim), dtype=np.complex128)
        step[:, inputs] = stacked
        step[:, ~inputs] = np.linalg.qr(stacked, mode="complete")[0][:, right:]
        unitaries.append(step)
    return unitaries


def apply_step_unitaries(unitaries, n, dim):
    """Run the step unitaries on ``|0> (x) |0...0>``.

    Step ``k`` (1-based, first list entry) acts on the ancilla and qubit
    ``k`` (bit ``k - 1``); returns the joint ``(dim, 2**n)`` array.
    """
    joint = np.zeros((dim, 2**n), dtype=np.complex128)
    joint[0, 0] = 1.0
    for k, u in enumerate(unitaries, start=1):
        hi, lo = 2 ** (n - k), 2 ** (k - 1)
        t = joint.reshape(dim, hi, 2, lo)
        g = u.reshape(dim, 2, dim, 2)
        joint = np.einsum("aibj,bhjl->ahil", g, t).reshape(dim, 2**n)
    return joint
