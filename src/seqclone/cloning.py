"""Optimal 1 -> M symmetric-cloning target states.

The cloner maps a single unknown qubit onto an entangled register of
``2M - 1`` qubits: ``M`` approximate clones on the leftmost (most
significant) qubits, then ``M - 1`` anticlones.  For input
``alpha|0> + beta|1>`` the output is ``alpha GM(|0>) + beta GM(|1>)`` with::

    GM(|0>) = sum_j  a_j  |(M-j) x |0>, j x |1>)_sym  (x)  ((M-j-1) x |1>, j x |0>)_sym
    GM(|1>) = sum_j  a_j  |(M-j) x |1>, j x |0>)_sym  (x)  ((M-j-1) x |0>, j x |1>)_sym

and weights ``a_j = sqrt(2(M-j) / (M(M+1)))``; the basis outputs differ in
total parity, so they are orthogonal and linearity preserves the norm.

In this blocked order the bond index of the state's matrix-product chain
only counts 1s (Delgado et al., PRL 98, 150502 (2007)): clone sites carry
the 1s emitted so far, a weight matrix at the clone/anticlone cut picks
``j`` and the input amplitude, and anticlone sites count down the 1s still
owed.  :func:`gm_mps` is that chain in canonical form and :func:`gm_state`
its dense expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import mps as mps_mod
from .linalg import RANK_RTOL


@dataclass(frozen=True)
class PureQubit:
    """Single-qubit pure state ``alpha |0> + beta |1>``, normalized."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        norm_sq = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if not abs(norm_sq - 1.0) <= 1e-12:  # also rejects NaN and inf
            raise ValueError(f"qubit amplitudes not normalized: |psi|^2 = {norm_sq!r}")

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.alpha, self.beta], dtype=np.complex128)


KET_ZERO = PureQubit(1.0, 0.0)
KET_ONE = PureQubit(0.0, 1.0)
KET_PLUS = PureQubit(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))


@dataclass(frozen=True)
class GMSpec:
    """Request for the output of the 1 -> ``clones`` symmetric cloner."""

    clones: int
    input: PureQubit = field(default=KET_PLUS)

    def __post_init__(self):
        if self.clones < 1:
            raise ValueError(f"clone count must be >= 1, got {self.clones}")

    @property
    def qubits(self) -> int:
        """Register width: M clones plus M - 1 anticlones."""
        return 2 * self.clones - 1


def gm_coefficients(m: int) -> np.ndarray:
    """Superposition weights ``sqrt(2(M-j)/(M(M+1)))`` for ``j = 0..M-1``.

    Strictly decreasing with ``j``; their squares sum to one.
    """
    if m < 1:
        raise ValueError(f"clone count must be >= 1, got {m}")
    j = np.arange(m)
    return np.sqrt(2.0 * (m - j) / (m * (m + 1.0)))


def _counter_site(k: int) -> np.ndarray:
    """Shifted identities: a count ``c`` of 1s in ``0..k`` stays ``c`` (emit 0) or becomes ``c + 1``."""
    t = np.zeros((2, k + 1, k + 2), dtype=np.complex128)
    t[0, :, :-1] = t[1, :, 1:] = np.eye(k + 1)
    return t


def _counter_chain(spec: GMSpec) -> list[np.ndarray]:
    """Cloner output as a chain whose bonds count 1s (not canonical).

    The cut matrix maps ``j`` clone 1s to ``M - 1 - j`` anticlone 1s owed
    (``alpha``) and ``M - j`` to ``j`` (``beta``), with weight ``a_j`` over
    ``sqrt(C(M, j) C(M-1, j))``.  Each amplitude is one cut entry times
    ones, so the dense expansion is exact, zeros included.
    """
    m = spec.clones
    cut = np.zeros((m + 1, m), dtype=np.complex128)
    for j, a in enumerate(gm_coefficients(m)):
        # rounded per block, as a product of normalized symmetric blocks is,
        # so dense targets match that construction bit for bit
        w = a * ((1.0 / math.sqrt(math.comb(m, j))) * (1.0 / math.sqrt(math.comb(m - 1, j))))
        cut[j, m - 1 - j] = spec.input.alpha * w
        cut[m - j, j] = spec.input.beta * w
    sites = [_counter_site(k) for k in range(m)]
    sites[-1] = np.einsum("icd,dr->icr", sites[-1], cut)
    return sites + [_counter_site(k).transpose(0, 2, 1) for k in range(m - 2, -1, -1)]


def gm_mps(spec: GMSpec) -> mps_mod.MatrixProductState:
    """Exact left-canonical chain of the cloner output, in ``O(n M^3)``.

    After a right QR sweep every cut of the left SVD sweep is a Schmidt
    decomposition, so the bonds are those of ``from_statevector(gm_state(spec), RANK_RTOL)``.
    """
    sites = _counter_chain(spec)
    for k in range(len(sites) - 1, 0, -1):
        mps_mod.shift_centre(sites, k, -1)
    for k in range(len(sites) - 1):
        sites[k], carry = mps_mod.split_site(sites[k].transpose(1, 0, 2), RANK_RTOL)
        sites[k + 1] = np.einsum("lr,irt->ilt", carry, sites[k + 1])
    return mps_mod.MatrixProductState(sites=sites, canonical=True)


def gm_state(spec: GMSpec) -> np.ndarray:
    """Dense ``2M - 1`` qubit output state of the optimal symmetric cloner.

    Expanded from the counter chain before canonicalization, so amplitudes
    that vanish are exactly zero.  For ``M = 1`` it is the input qubit.
    """
    return mps_mod.to_statevector(mps_mod.MatrixProductState(sites=_counter_chain(spec)))


def clone_fidelity_oracle(spec: GMSpec, clone_index: int) -> float:
    """Clone quality ``<psi| rho_clone |psi>`` of the exact cloner output.

    ``clone_index`` runs from 1 to ``M``; symmetry makes the value independent
    of it.  The sites left of the clone are left-orthonormal, so its one-site
    density needs only the environment of the sites to its right.
    """
    if not 1 <= clone_index <= spec.clones:
        raise ValueError(f"clone index must be in [1, {spec.clones}], got {clone_index}")
    sites = gm_mps(spec).sites
    env = np.ones((1, 1), dtype=np.complex128)
    for t in reversed(sites[clone_index:]):
        env = sum(t[i] @ env @ t[i].conj().T for i in range(2))
    t = sites[clone_index - 1]
    rho = np.einsum("alr,rs,bls->ab", t, env, t.conj())
    return float(np.real(np.vdot(spec.input.vector, rho @ spec.input.vector)))
