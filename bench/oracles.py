"""Reference values for the benchmark's correctness checks.

Nothing here imports ``seqclone``.  Every expected value comes from a closed
form or from plain numpy/scipy, so a fault in the package cannot hide in its
own reference:

* the cloner state is written down amplitude by amplitude from the
  Gisin-Massar closed form, by counting the 1s in each block of a basis
  index (no ``itertools``, no ``np.kron``);
* Schmidt floors and bond profiles come from ``numpy.linalg.svd`` of that
  state at every single cut;
* an XXZ schedule is re-simulated densely with ``scipy.linalg.expm`` of a
  generator built from Pauli matrices, with the ZYZ rotations built
  separately from their own generators;
* an MPS document is decoded from its JSON text with ``json`` and ``float``.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.linalg import expm

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def gm_weights(m: int) -> list[float]:
    """Closed-form superposition weights ``sqrt(2(M-j)/(M(M+1)))``."""
    return [math.sqrt(2.0 * (m - j) / (m * (m + 1.0))) for j in range(m)]


def clone_fidelity(m: int) -> float:
    """Fidelity ``(2M+1)/(3M)`` of each clone of the optimal 1 -> M cloner."""
    return (2.0 * m + 1.0) / (3.0 * m)


def _popcount(values: np.ndarray, bits: int) -> np.ndarray:
    count = np.zeros_like(values)
    for b in range(bits):
        count += (values >> b) & 1
    return count


def cloner_state(m: int, alpha: complex, beta: complex) -> np.ndarray:
    """Dense ``2M - 1`` qubit cloner output for input ``alpha|0> + beta|1>``.

    The clone block is the ``M`` most significant bits, the anticlone block
    the ``M - 1`` least significant ones.  A symmetric block with ``k`` ones
    among ``m`` qubits has amplitude ``1/sqrt(C(m, k))`` on every basis
    string with ``k`` ones, so term ``j`` of the ``|0>`` output lives on
    indices with ``j`` ones among the clones and ``M - 1 - j`` among the
    anticlones, and term ``j`` of the ``|1>`` output on ``M - j`` and ``j``.
    """
    n = 2 * m - 1
    idx = np.arange(2**n, dtype=np.int64)
    clone_ones = _popcount(idx >> (m - 1), m)
    anti_ones = _popcount(idx & ((1 << (m - 1)) - 1), m - 1)
    weights = gm_weights(m)
    amps = np.zeros(2**n, dtype=complex)
    for j in range(m):
        scale = weights[j] / math.sqrt(math.comb(m, j) * math.comb(m - 1, j))
        amps[(clone_ones == j) & (anti_ones == m - 1 - j)] += alpha * scale
        amps[(clone_ones == m - j) & (anti_ones == j)] += beta * scale
    return amps


def schmidt_values(state: np.ndarray) -> list[np.ndarray]:
    """Singular values of ``state`` at every cut ``c = 1..n-1``."""
    n = int(state.size).bit_length() - 1
    return [
        np.linalg.svd(state.reshape(2**c, -1), compute_uv=False) for c in range(1, n)
    ]


def schmidt_floor(spectra: list[np.ndarray], cap: int) -> float:
    """Least possible ``1 - |<target|phi>|`` over states ``phi`` of bond <= cap.

    At each cut such a ``phi`` has Schmidt rank <= ``cap``, so its overlap
    with the target is at most the root of the target's ``cap`` largest
    squared Schmidt values there; the tightest cut gives the floor.
    """
    kept = min(float(np.sum(s[:cap] ** 2) / np.sum(s**2)) for s in spectra)
    return 1.0 - math.sqrt(kept)


def bond_profile(spectra: list[np.ndarray], rtol: float = 1e-10) -> list[int]:
    """Numerical Schmidt rank at every cut, with the trivial edges."""
    return [1] + [int(np.count_nonzero(s > rtol * s[0])) for s in spectra] + [1]


def zyz_rotation(theta: float, phi: float, lam: float) -> np.ndarray:
    """``Rz(phi) Ry(theta) Rz(lam)`` from the Pauli generators."""
    return expm(-0.5j * phi * Z) @ expm(-0.5j * theta * Y) @ expm(-0.5j * lam * Z)


def xxz_gate(h1: float, h2: float) -> np.ndarray:
    """``expm(-i (h1 (XX + YY) + h2 ZZ))`` on (ancilla, qubit)."""
    return expm(-1j * (h1 * (np.kron(X, X) + np.kron(Y, Y)) + h2 * np.kron(Z, Z)))


def _apply(psi: np.ndarray, gate: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    k = len(axes)
    g = gate.reshape((2,) * (2 * k))
    out = np.tensordot(g, psi, axes=(list(range(k, 2 * k)), list(axes)))
    return np.moveaxis(out, list(range(k)), list(axes))


def schedule_fidelity(steps, aux_qubit, aux_ancilla, aux_enabled, target) -> float:
    """Best overlap of a re-simulated XXZ schedule with ``phi (x) target``.

    ``steps`` are ``(h1, h2)`` pairs; step ``k`` (1-based) acts on the
    ancilla and register qubit ``k``, the ``k``-th least significant bit,
    after the ZYZ rotations ``aux_ancilla[k-1]`` and ``aux_qubit[k-1]``.
    The ancilla starts in ``|0>`` and its final state is optimal, so the
    fidelity is the norm of the ancilla vector left after contracting the
    register with the target.
    """
    n = len(steps)
    psi = np.zeros((2,) * (n + 1), dtype=complex)
    psi[(0,) * (n + 1)] = 1.0
    for k, (h1, h2) in enumerate(steps, start=1):
        gate = xxz_gate(h1, h2)
        if aux_enabled:
            gate = gate @ np.kron(zyz_rotation(*aux_ancilla[k - 1]), zyz_rotation(*aux_qubit[k - 1]))
        psi = _apply(psi, gate, (0, n - k + 1))
    w = psi.reshape(2, -1) @ np.conj(target)
    return float(np.linalg.norm(w))


def decode_mps_document(text: str) -> tuple[list[int], np.ndarray]:
    """Bond profile and dense amplitudes of a ``seqclone.mps/1`` document.

    Each array is stored as ``{"shape": [...], "data": [re, im, ...]}`` with
    decimal strings; sites have shape ``(2, left, right)``, most significant
    qubit first, with ``phi_final`` as the left bra and ``phi_initial`` as
    the right ket.
    """
    doc = json.loads(text)
    if doc["schema"] != "seqclone.mps/1":
        raise ValueError(f"unexpected schema {doc['schema']!r}")

    def array(entry):
        parts = [float(x) for x in entry["data"]]
        values = [complex(re, im) for re, im in zip(parts[0::2], parts[1::2])]
        return np.array(values, dtype=complex).reshape(entry["shape"])

    sites = [array(s) for s in doc["sites"]]
    if len(sites) != doc["qubits"]:
        raise ValueError("site count differs from the qubit count")
    amps = np.conj(array(doc["phi_final"])).reshape(1, -1)
    for t in sites:
        amps = np.einsum("pl,ilr->pir", amps, t).reshape(-1, t.shape[2])
    amps = amps @ array(doc["phi_initial"])
    bonds = [sites[0].shape[1]] + [t.shape[2] for t in sites]
    return bonds, amps
