"""Matrix-product (tensor-train) representation of dense qubit states.

A state is stored as a chain of site tensors whose edge bonds are 1::

    amplitude(i_n, ..., i_1) = V[0]^{i_n} ... V[n-1]^{i_1}    (a 1 x 1 matrix)

``sites[0]`` carries the leftmost (most significant) ket label and the
decomposition peels that index first, so the chain is left-orthonormal
(canonical) when produced by :func:`from_statevector`.  Canonical form is
measured, never stored: :attr:`MatrixProductState.canonical` holds when
every site is an isometry to :data:`CANONICAL_TOL`.  Sequential
generation emits qubits starting from the *last* stored site (the least
significant one), whose right bond of 1 stands for the ancilla's start
state ``|0>``.

Site tensors have shape ``(2, left_bond, right_bond)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import CanonicalFormError, StructureError

#: Largest left-orthonormality defect of a canonical chain.
CANONICAL_TOL = 1e-10


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
            the most significant qubit to the least significant one; the
            first left bond and the last right bond are 1.

    Whether the chain is canonical is a property of its sites, so it is
    read off them (:attr:`canonical`) and cannot be set.
    """

    sites: list[np.ndarray]

    def __post_init__(self):
        if not self.sites:
            raise StructureError("an MPS needs at least one site")
        self.sites = [np.asarray(t, dtype=np.complex128) for t in self.sites]
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
        edges = (self.sites[0].shape[1], self.sites[-1].shape[2])
        if edges != (1, 1):
            raise StructureError(f"edge bonds must be 1, got {edges[0]} and {edges[1]}")

    @property
    def n_qubits(self) -> int:
        return len(self.sites)

    @property
    def bond_dimensions(self) -> list[int]:
        """All ``n + 1`` bond dimensions, including the edge bonds of 1."""
        return [self.sites[0].shape[1]] + [t.shape[2] for t in self.sites]

    @property
    def max_bond(self) -> int:
        return max(self.bond_dimensions)

    def left_orthonormality_defect(self) -> float:
        """Largest deviation of any site from the canonical isometry condition
        (NaN when a site holds NaN)."""
        worst = 0.0
        for t in self.sites:
            gram = np.einsum("ilr,ils->rs", t.conj(), t)
            worst = np.maximum(worst, np.max(np.abs(gram - np.eye(t.shape[2]))))
        return float(worst)

    @property
    def canonical(self) -> bool:
        """True when every site satisfies ``sum_i V^i{dagger} V^i = 1`` to
        :data:`CANONICAL_TOL` (False when a site holds NaN)."""
        return self.left_orthonormality_defect() <= CANONICAL_TOL

    def require_canonical(self, purpose: str) -> None:
        """Raise :class:`CanonicalFormError`, naming the measured defect,
        unless the chain is :attr:`canonical`; ``purpose`` starts the message."""
        if not self.canonical:
            raise CanonicalFormError(
                f"{purpose} needs a left-orthonormal (canonical) chain: orthonormality "
                f"defect {self.left_orthonormality_defect():.1e} > {CANONICAL_TOL:g}"
            )

    def copy(self) -> "MatrixProductState":
        return MatrixProductState(sites=[t.copy() for t in self.sites])


def shift_centre(sites: list[np.ndarray], k: int, step: int) -> None:
    """Turn site ``k`` into an isometry by QR and carry ``r`` to ``k + step``.

    ``step = +1`` leaves site ``k`` left-orthonormal, ``step = -1``
    right-orthonormal (``sum_i X^i X^i{dagger} = 1``); the chain still
    represents the same state.  Tensors are replaced, never written into.
    The QR is :func:`linalg.qr`; a caller that overwrites site ``k + step``
    next, as the ALS sweep does, needs only its ``q``.
    """
    two, lw, rw = sites[k].shape
    if step > 0:
        q, r = linalg.qr(sites[k].reshape(two * lw, rw))
        sites[k] = q.reshape(two, lw, -1)
        sites[k + 1] = r @ sites[k + 1]
    else:
        # LQ of the site matrix as the transposed QR, m = r^T q^T
        q, r = linalg.qr(sites[k].transpose(1, 0, 2).reshape(lw, two * rw).T)
        sites[k] = q.T.reshape(-1, two, rw).transpose(1, 0, 2)
        sites[k - 1] = sites[k - 1] @ r.T


def canonicalize(sites: list[np.ndarray], step: int, normalize: bool = False) -> None:
    """Carry the centre across the whole chain by :func:`shift_centre`.

    ``step = +1`` walks left to right and leaves every site but the last
    left-orthonormal, ``step = -1`` walks right to left and leaves every
    site but the first right-orthonormal.  With ``normalize`` the site the
    walk ends on is divided by its norm: a chain whose norm is only within
    1e-10 of 1 can still leave a defect above :data:`CANONICAL_TOL` there.
    """
    n = len(sites)
    for k in range(n - 1) if step > 0 else range(n - 1, 0, -1):
        shift_centre(sites, k, step)
    if normalize:
        end = n - 1 if step > 0 else 0
        sites[end] = sites[end] / np.linalg.norm(sites[end])


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
    (``rank_tol = 0`` drops nothing but exact zeros).  A norm within 1e-10
    of 1 is divided out: the last site carries it, and a canonical chain
    needs it to be 1.
    """
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    n = num_qubits(v)
    if rank_tol < 0:
        raise ValueError(f"rank_tol must be >= 0, got {rank_tol}")
    norm = np.linalg.norm(v)
    if not abs(norm - 1.0) <= 1e-10:  # also rejects NaN and inf
        raise ValueError(f"statevector must be normalized, got norm {norm!r}")
    if norm != 1.0:
        v = v / norm

    sites: list[np.ndarray] = []
    remainder = v.reshape(1, -1)
    for _ in range(n - 1):
        site, remainder = split_site(remainder.reshape(len(remainder), 2, -1), rank_tol)
        sites.append(site)
    sites.append(remainder.reshape(-1, 2, 1).transpose(1, 0, 2))
    return MatrixProductState(sites=sites)


def to_statevector(m: MatrixProductState) -> np.ndarray:
    """Dense amplitudes of an MPS, most significant qubit first."""
    cur = np.ones((1, 1), dtype=np.complex128)
    for t in m.sites:
        cur = np.einsum("kl,ilr->kir", cur, t).reshape(-1, t.shape[2])
    return cur[:, 0]


def overlap(a: MatrixProductState, b: MatrixProductState) -> complex:
    """Inner product ``<a|b>`` by transfer-matrix contraction.

    Sequential site-by-site contraction, cost ``O(n D^3)``; never builds the
    dense vectors.
    """
    if a.n_qubits != b.n_qubits:
        raise StructureError(
            f"qubit counts differ: {a.n_qubits} vs {b.n_qubits}"
        )
    env = np.ones((1, 1), dtype=np.complex128)
    for ta, tb in zip(a.sites, b.sites):
        pair = ta.conj().transpose(0, 2, 1) @ env @ tb
        env = pair[0] + pair[1]
    return complex(env[0, 0])


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
    ``|0> (x) |0...0>`` leaves the register in the dense state and the
    ancilla decoupled in ``|0>``.
    """
    m.require_canonical("sequential extraction")
    dim = m.max_bond
    unitaries = []
    for t in reversed(m.sites):
        left, right = t.shape[1], t.shape[2]
        stacked = np.zeros((2 * dim, right), dtype=np.complex128)
        stacked[: 2 * left] = t.transpose(1, 0, 2).reshape(2 * left, right)
        full = linalg.complete_to_unitary(stacked)
        inputs = np.zeros(2 * dim, dtype=bool)
        inputs[: 2 * right : 2] = True
        step = np.zeros((2 * dim, 2 * dim), dtype=np.complex128)
        step[:, inputs] = full[:, :right]
        step[:, ~inputs] = full[:, right:]
        unitaries.append(step)
    return unitaries


# --- JSON serialization (schema "seqclone.mps/1") ---------------------------
#
# Complex arrays are flattened in row-major order into alternating
# real/imaginary float64 components, each re-encoded as a decimal string that
# round-trips the double exactly.  The edge vectors "phi_final" (a bra on the
# left edge) and "phi_initial" (a ket on the right edge) are written as [1].


def _encode_array(a: np.ndarray) -> dict:
    flat = np.ascontiguousarray(a, dtype=np.complex128).reshape(-1)
    parts = np.empty(2 * flat.size, dtype=np.float64)
    parts[0::2] = flat.real
    parts[1::2] = flat.imag
    return {"shape": list(a.shape), "data": [f"{x:.17g}" for x in parts]}


def _decode_array(doc: dict, name: str) -> np.ndarray:
    try:
        parts = np.array([float(x) for x in doc["data"]], dtype=np.float64)
        return parts.view(np.complex128).reshape(doc["shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise StructureError(f"{name} is not an encoded complex array: {exc!r}") from None


def to_json(m: MatrixProductState) -> str:
    """Serialize an MPS to a JSON document (schema ``seqclone.mps/1``); its
    ``"canonical"`` flag is :attr:`MatrixProductState.canonical`, for readers."""
    doc = {
        "schema": "seqclone.mps/1",
        "qubits": m.n_qubits,
        "canonical": m.canonical,
        "sites": [_encode_array(t) for t in m.sites],
        "phi_initial": _encode_array(np.ones(1)),
        "phi_final": _encode_array(np.ones(1)),
    }
    return json.dumps(doc, indent=1)


def from_json(text: str) -> MatrixProductState:
    """Inverse of :func:`to_json`; validates the schema tag, the qubit count
    and the ``"canonical"`` flag against the decoded sites, and raises
    :class:`StructureError` on a malformed document.

    An edge vector other than ``[1]`` is folded into its edge site, so
    documents with boundary vectors, such as a synthesized joint chain
    with ``phi_initial = |0>``, load as the same amplitudes.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise StructureError(f"an MPS document is a JSON object, not {type(doc).__name__}")
    if doc.get("schema") != "seqclone.mps/1":
        raise StructureError(f"unsupported MPS document schema: {doc.get('schema')!r}")
    for key in ("qubits", "canonical", "sites", "phi_initial", "phi_final"):
        if key not in doc:
            raise StructureError(f"MPS document has no {key!r}")
    if not isinstance(doc["sites"], list):
        raise StructureError("'sites' of an MPS document is not a list")
    sites = [_decode_array(t, f"sites[{k}]") for k, t in enumerate(doc["sites"])]
    bra, ket = (_decode_array(doc[key], key).reshape(-1) for key in ("phi_final", "phi_initial"))
    try:
        if not np.array_equal(bra, [1]):
            sites[0] = np.einsum("l,ilr->ir", bra.conj(), sites[0])[:, None, :]
        if not np.array_equal(ket, [1]):
            sites[-1] = np.einsum("ilr,r->il", sites[-1], ket)[:, :, None]
    except (IndexError, ValueError) as exc:
        raise StructureError(f"edge vectors do not fit the edge sites: {exc}") from None
    mps = MatrixProductState(sites=sites)
    if mps.n_qubits != doc["qubits"]:
        raise StructureError("qubit count in document does not match site list")
    if mps.canonical != doc["canonical"]:
        raise StructureError(
            f"document flags canonical as {doc['canonical']} but its sites have "
            f"orthonormality defect {mps.left_orthonormality_defect():.1e}"
        )
    return mps
