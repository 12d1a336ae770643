"""Matrix-product (tensor-train) representation of dense qubit states.

A state is stored as a chain of site tensors plus two boundary vectors::

    amplitude(i_n, ..., i_1) = conj(phi_final) . V[0]^{i_n} ... V[n-1]^{i_1} . phi_initial

``sites[0]`` carries the leftmost (most significant) ket label and the
decomposition peels that index first, so the chain is left-orthonormal
(canonical) when produced by :func:`from_statevector`.  ``phi_final``
contracts the left edge as a bra, ``phi_initial`` the right edge as a ket;
sequential generation emits qubits starting from the *last* stored site
(the least significant one), consuming ``phi_initial`` as the initial
ancilla state.

Site tensors have shape ``(2, left_bond, right_bond)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import CanonicalFormError, StructureError

_ORTHO_TOL = 1e-10


def num_qubits(amplitudes: np.ndarray) -> int:
    """Qubit count of a dense statevector; validates the power-of-two length."""
    size = int(np.asarray(amplitudes).size)
    n = size.bit_length() - 1
    if size < 2 or 2**n != size:
        raise StructureError(f"statevector length {size} is not a power of two >= 2")
    return n


@dataclass
class MatrixProductState:
    """Open-boundary MPS over qubits.

    Attributes:
        sites: site tensors, shape ``(2, D_left, D_right)`` each, ordered from
            the most significant qubit to the least significant one.
        phi_initial: ket boundary on the right edge (length = last right bond).
        phi_final: bra boundary on the left edge (length = first left bond).
        canonical: True when every site satisfies the left-orthonormality
            condition ``sum_i V^i{dagger} V^i = 1``.
    """

    sites: list[np.ndarray]
    phi_initial: np.ndarray = field(default_factory=lambda: np.ones(1, dtype=np.complex128))
    phi_final: np.ndarray = field(default_factory=lambda: np.ones(1, dtype=np.complex128))
    canonical: bool = False

    def __post_init__(self):
        if not self.sites:
            raise StructureError("an MPS needs at least one site")
        self.sites = [np.asarray(t, dtype=np.complex128) for t in self.sites]
        self.phi_initial = np.asarray(self.phi_initial, dtype=np.complex128).reshape(-1)
        self.phi_final = np.asarray(self.phi_final, dtype=np.complex128).reshape(-1)
        for k, t in enumerate(self.sites):
            if t.ndim != 3 or t.shape[0] != 2:
                raise StructureError(
                    f"site {k} must have shape (2, left, right), got {t.shape}"
                )
        for k in range(len(self.sites) - 1):
            if self.sites[k].shape[2] != self.sites[k + 1].shape[1]:
                raise StructureError(
                    f"bond mismatch between sites {k} and {k + 1}: "
                    f"{self.sites[k].shape[2]} vs {self.sites[k + 1].shape[1]}"
                )
        if self.phi_final.shape[0] != self.sites[0].shape[1]:
            raise StructureError("phi_final length does not match the first left bond")
        if self.phi_initial.shape[0] != self.sites[-1].shape[2]:
            raise StructureError("phi_initial length does not match the last right bond")

    @property
    def n_qubits(self) -> int:
        return len(self.sites)

    @property
    def bond_dimensions(self) -> list[int]:
        """All ``n + 1`` bond dimensions including the boundary ones."""
        return [self.sites[0].shape[1]] + [t.shape[2] for t in self.sites]

    @property
    def max_bond(self) -> int:
        return max(self.bond_dimensions)

    def left_orthonormality_defect(self) -> float:
        """Largest deviation of any site from the canonical isometry condition."""
        worst = 0.0
        for t in self.sites:
            gram = np.einsum("ilr,ils->rs", t.conj(), t)
            worst = max(worst, float(np.max(np.abs(gram - np.eye(t.shape[2])))))
        return worst

    def copy(self) -> "MatrixProductState":
        return MatrixProductState(
            sites=[t.copy() for t in self.sites],
            phi_initial=self.phi_initial.copy(),
            phi_final=self.phi_final.copy(),
            canonical=self.canonical,
        )


def shift_centre(sites: list[np.ndarray], k: int, step: int) -> None:
    """Turn site ``k`` into an isometry by QR and carry the rest to ``k + step``.

    ``step = +1`` leaves site ``k`` left-orthonormal, ``step = -1``
    right-orthonormal (``sum_i X^i X^i{dagger} = 1``); the chain still
    represents the same state.  Tensors are replaced, never written into.
    """
    two, lw, rw = sites[k].shape
    if step > 0:
        q, r = np.linalg.qr(sites[k].reshape(two * lw, rw))
        sites[k] = q.reshape(two, lw, -1)
        sites[k + 1] = np.einsum("sr,irt->ist", r, sites[k + 1])
    else:
        q, r = np.linalg.qr(sites[k].transpose(1, 0, 2).reshape(lw, two * rw).conj().T)
        sites[k] = q.conj().T.reshape(-1, two, rw).transpose(1, 0, 2)
        sites[k - 1] = np.einsum("ilr,sr->ils", sites[k - 1], r.conj())


def split_site(block: np.ndarray, rank_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """SVD-split a ``(bond, 2, rest)`` block into a left-orthonormal site and
    ``S V^dagger``, dropping singular values at or below ``rank_tol`` times the largest."""
    bond = block.shape[0]
    u, s, right = linalg.svd(block.reshape(2 * bond, -1))
    keep = max(1, int(np.count_nonzero(s > rank_tol * s[0])))
    site = u[:, :keep].reshape(bond, 2, keep).transpose(1, 0, 2)
    return site, s[:keep, None] * right[:, :keep].conj().T


def from_statevector(v: np.ndarray, rank_tol: float = 0.0) -> MatrixProductState:
    """Exact left-canonical MPS of a normalized dense state by repeated SVD.

    At every bipartition the remainder matrix is decomposed and singular
    values at or below ``rank_tol`` times the largest one are dropped, so the
    bond dimensions equal the numerical ranks of the sequential cuts
    (``rank_tol = 0`` drops nothing but exact zeros).
    """
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    n = num_qubits(v)
    if rank_tol < 0:
        raise ValueError(f"rank_tol must be >= 0, got {rank_tol}")
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"statevector must be normalized, got norm {norm!r}")

    sites: list[np.ndarray] = []
    remainder = v.reshape(1, -1)
    for _ in range(n - 1):
        site, remainder = split_site(remainder.reshape(len(remainder), 2, -1), rank_tol)
        sites.append(site)
    sites.append(remainder.reshape(-1, 2, 1).transpose(1, 0, 2))
    return MatrixProductState(sites=sites, canonical=True)


def to_statevector(m: MatrixProductState) -> np.ndarray:
    """Dense amplitudes of an MPS, most significant qubit first."""
    cur = m.phi_final.conj().reshape(1, -1)
    for t in m.sites:
        cur = np.einsum("kl,ilr->kir", cur, t).reshape(-1, t.shape[2])
    return cur @ m.phi_initial


def overlap(a: MatrixProductState, b: MatrixProductState) -> complex:
    """Inner product ``<a|b>`` by transfer-matrix contraction.

    Sequential site-by-site contraction, cost ``O(n D^3)``; never builds the
    dense vectors.
    """
    if a.n_qubits != b.n_qubits:
        raise StructureError(
            f"qubit counts differ: {a.n_qubits} vs {b.n_qubits}"
        )
    env = np.outer(a.phi_final, b.phi_final.conj())
    for ta, tb in zip(a.sites, b.sites):
        env = sum(ta[i].conj().T @ env @ tb[i] for i in range(2))
    return complex(a.phi_initial.conj() @ env @ b.phi_initial)


def norm(m: MatrixProductState) -> float:
    return float(np.sqrt(abs(overlap(m, m))))


def extract_isometries(m: MatrixProductState) -> list[np.ndarray]:
    """Step unitaries that generate the state sequentially.

    Requires a left-orthonormal chain.  With ``D`` the maximal bond
    dimension, every returned matrix is a ``2D x 2D`` unitary on the
    (ancilla, qubit) pair with the ancilla index first; column ``2a`` (the
    input ``|a> (x) |0>``) of step ``k`` holds the stacked pair of site
    matrices, zero-padded to the common ancilla dimension, and the remaining
    columns are an arbitrary orthonormal completion.

    The list is ordered by application: the first entry generates the least
    significant qubit (the last stored site).  Applying all steps to
    ``phi_initial (x) |0...0>`` reproduces the dense state with the ancilla
    decoupled, up to the scalar boundary phase.
    """
    if not m.canonical or m.left_orthonormality_defect() > _ORTHO_TOL:
        raise CanonicalFormError(
            "sequential extraction needs a left-orthonormal (canonical) MPS; "
            "rebuild it with from_statevector first"
        )
    dim = m.max_bond
    unitaries = []
    for t in reversed(m.sites):
        left, right = t.shape[1], t.shape[2]
        stacked = np.zeros((2 * dim, right), dtype=np.complex128)
        for i in range(2):
            for a_out in range(left):
                stacked[2 * a_out + i, :] = t[i, a_out, :]
        full = linalg.complete_to_unitary(stacked)
        step = np.zeros((2 * dim, 2 * dim), dtype=np.complex128)
        step[:, [2 * a for a in range(right)]] = full[:, :right]
        free_cols = [c for c in range(2 * dim) if not (c % 2 == 0 and c // 2 < right)]
        step[:, free_cols] = full[:, right:]
        unitaries.append(step)
    return unitaries


# --- JSON serialization (schema "seqclone.mps/1") ---------------------------
#
# Complex arrays are flattened in row-major order into alternating
# real/imaginary float64 components, each re-encoded as a decimal string that
# round-trips the double exactly.


def _encode_array(a: np.ndarray) -> dict:
    flat = np.ascontiguousarray(a, dtype=np.complex128).reshape(-1)
    parts = np.empty(2 * flat.size, dtype=np.float64)
    parts[0::2] = flat.real
    parts[1::2] = flat.imag
    return {"shape": list(a.shape), "data": [f"{x:.17g}" for x in parts]}


def _decode_array(doc: dict) -> np.ndarray:
    parts = np.array([float(x) for x in doc["data"]], dtype=np.float64)
    flat = parts[0::2] + 1j * parts[1::2]
    return flat.reshape(doc["shape"])


def to_json(m: MatrixProductState) -> str:
    """Serialize an MPS to a JSON document (schema ``seqclone.mps/1``)."""
    doc = {
        "schema": "seqclone.mps/1",
        "qubits": m.n_qubits,
        "canonical": bool(m.canonical),
        "sites": [_encode_array(t) for t in m.sites],
        "phi_initial": _encode_array(m.phi_initial),
        "phi_final": _encode_array(m.phi_final),
    }
    return json.dumps(doc, indent=1)


def from_json(text: str) -> MatrixProductState:
    """Inverse of :func:`to_json`; validates the schema tag."""
    doc = json.loads(text)
    if doc.get("schema") != "seqclone.mps/1":
        raise StructureError(f"unsupported MPS document schema: {doc.get('schema')!r}")
    mps = MatrixProductState(
        sites=[_decode_array(t) for t in doc["sites"]],
        phi_initial=_decode_array(doc["phi_initial"]),
        phi_final=_decode_array(doc["phi_final"]),
        canonical=bool(doc["canonical"]),
    )
    if mps.n_qubits != doc["qubits"]:
        raise StructureError("qubit count in document does not match site list")
    return mps
