"""Tests for the matrix-product-state representation."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqclone.cloning import GMSpec, KET_PLUS, gm_chain, gm_mps, gm_state
from seqclone.compression import svd_truncate_mps
from seqclone.errors import CanonicalFormError, StructureError
from seqclone.mps import (
    MatrixProductState,
    _encode_array,
    extract_isometries,
    from_json,
    from_statevector,
    norm,
    overlap,
    shift_centre,
    to_json,
    to_statevector,
)
from seqclone.sequential import optimize_schedule


def random_state(rng, n):
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return v / np.linalg.norm(v)


def apply_step_unitaries(unitaries, n, dim):
    """Oracle: run the extracted step unitaries on ``|0> (x) |0...0>``.

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


class TestFromStatevector:
    def test_product_state_bonds(self):
        v = np.zeros(8)
        v[0] = 1.0
        m = from_statevector(v)
        assert m.bond_dimensions == [1, 1, 1, 1]
        assert m.canonical

    def test_bell_state_bond(self):
        bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert from_statevector(bell).bond_dimensions == [1, 2, 1]

    def test_roundtrip_random(self):
        rng = np.random.default_rng(0)
        v = random_state(rng, 8)
        m = from_statevector(v, 0.0)
        assert np.max(np.abs(to_statevector(m) - v)) < 1e-10

    def test_left_orthonormal(self):
        rng = np.random.default_rng(1)
        m = from_statevector(random_state(rng, 6), 0.0)
        assert m.left_orthonormality_defect() < 1e-10

    def test_bond_cap_by_canonical_maximum(self):
        rng = np.random.default_rng(2)
        m = from_statevector(random_state(rng, 7), 0.0)
        n = 7
        for c, d in enumerate(m.bond_dimensions):
            assert d <= 2 ** min(c, n - c)

    @pytest.mark.parametrize("m_clones", [2, 4, 7])
    def test_cloner_rank_scaling(self, m_clones):
        state = gm_state(GMSpec(m_clones, KET_PLUS))
        chain = from_statevector(state, 1e-10)
        assert chain.max_bond <= 2 * m_clones

    @pytest.mark.parametrize("scale", [1 + 8e-11, 1 - 8e-11])
    def test_divides_out_an_accepted_norm_error(self, scale):
        # a norm within the accepted 1e-10 of 1 must still give a canonical
        # chain, or the canonical-only paths reject it
        v = random_state(np.random.default_rng(4), 4)
        m = from_statevector(v * scale)
        assert m.canonical
        assert np.max(np.abs(to_statevector(m) - v)) < 1e-14
        extract_isometries(m)
        svd_truncate_mps(m, 2)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            from_statevector(np.array([1.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        v = np.array([bad, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="normalized"):
            from_statevector(v)

    def test_rejects_bad_length(self):
        with pytest.raises(StructureError):
            from_statevector(np.ones(3) / np.sqrt(3))


class TestToStatevector:
    def test_single_site(self):
        m = MatrixProductState(sites=[np.array([[[1.0]], [[0.0]]], dtype=complex)])
        assert np.allclose(to_statevector(m), [1.0, 0.0])

    def test_bond_one_plus_states(self):
        plus = np.array([[[1.0]], [[1.0]]], dtype=complex) / np.sqrt(2)
        m = MatrixProductState(sites=[plus, plus.copy()])
        assert np.allclose(to_statevector(m), np.full(4, 0.5))


class TestOverlap:
    def test_normalized_self_overlap(self):
        rng = np.random.default_rng(4)
        m = from_statevector(random_state(rng, 5))
        assert abs(overlap(m, m) - 1.0) < 1e-12

    def test_orthogonal_states(self):
        a = from_statevector(np.array([1, 0, 0, 0], dtype=complex))
        b = from_statevector(np.array([0, 0, 0, 1], dtype=complex))
        assert abs(overlap(a, b)) < 1e-14

    def test_matches_dense_inner_product(self):
        rng = np.random.default_rng(5)
        va, vb = random_state(rng, 10), random_state(rng, 10)
        a, b = from_statevector(va), from_statevector(vb)
        assert abs(overlap(a, b) - np.vdot(va, vb)) < 1e-10

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(6)
        a = from_statevector(random_state(rng, 6))
        b = from_statevector(random_state(rng, 6))
        assert abs(overlap(a, b) - np.conj(overlap(b, a))) < 1e-12

    def test_norm_matches_dense(self):
        rng = np.random.default_rng(7)
        v = random_state(rng, 6)
        m = from_statevector(v)
        m.sites[0] = m.sites[0] * 1.7
        assert abs(norm(m) - 1.7) < 1e-10

    def test_rejects_length_mismatch(self):
        rng = np.random.default_rng(8)
        a = from_statevector(random_state(rng, 3))
        b = from_statevector(random_state(rng, 4))
        with pytest.raises(StructureError):
            overlap(a, b)


@st.composite
def ragged_sites(draw, n=None):
    """Random complex sites of ``n`` qubits (2..6 when not given) with ragged
    bonds: 1..5 inside, 1 at the edges."""
    if n is None:
        n = draw(st.integers(2, 6))
    bonds = [1] + draw(st.lists(st.integers(1, 5), min_size=n - 1, max_size=n - 1)) + [1]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [
        rng.standard_normal((2, bonds[j], bonds[j + 1]))
        + 1j * rng.standard_normal((2, bonds[j], bonds[j + 1]))
        for j in range(n)
    ]


@st.composite
def chain_and_move(draw):
    """A ragged chain plus a site ``k`` and a direction ``step`` that keeps
    ``k + step`` on the chain."""
    sites = draw(ragged_sites())
    n = len(sites)
    step = draw(st.sampled_from([1, -1]))
    k = draw(st.integers(0, n - 2) if step > 0 else st.integers(1, n - 1))
    return sites, k, step


class TestShiftCentre:
    @settings(max_examples=200, deadline=None)
    @given(chain_and_move())
    def test_state_preserved(self, case):
        sites, k, step = case
        before = to_statevector(MatrixProductState(sites=sites))
        moved = list(sites)
        shift_centre(moved, k, step)
        after = to_statevector(MatrixProductState(sites=moved))
        scale = np.linalg.norm(before)
        assert np.max(np.abs(after - before)) <= 1e-12 * scale

    @settings(max_examples=200, deadline=None)
    @given(chain_and_move())
    def test_site_left_behind_is_orthonormal(self, case):
        sites, k, step = case
        moved = list(sites)
        shift_centre(moved, k, step)
        x = moved[k]
        if step > 0:
            gram = sum(x[i].conj().T @ x[i] for i in range(2))
        else:
            gram = sum(x[i] @ x[i].conj().T for i in range(2))
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(chain_and_move())
    def test_inputs_not_written_into(self, case):
        sites, k, step = case
        copies = [t.copy() for t in sites]
        moved = list(sites)
        shift_centre(moved, k, step)
        for original, copy in zip(sites, copies):
            assert np.array_equal(original, copy)
        for j in (k, k + step):
            assert not np.shares_memory(moved[j], sites[j])


@st.composite
def canonical_chain(draw):
    """A ragged chain of 3..8 qubits made left-orthonormal and normalized."""
    sites = draw(ragged_sites(draw(st.integers(3, 8))))
    for k in range(len(sites) - 1):
        shift_centre(sites, k, +1)
    sites[-1] = sites[-1] / np.linalg.norm(sites[-1])
    return MatrixProductState(sites=sites)


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(ragged_sites())
    def test_json_roundtrip_is_bit_exact(self, sites):
        m = MatrixProductState(sites=sites)
        m2 = from_json(to_json(m))
        assert m2.canonical == m.canonical
        for a, b in zip(m.sites, m2.sites):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 6).flatmap(lambda n: st.tuples(ragged_sites(n), ragged_sites(n))))
    def test_overlap_conjugate_symmetry(self, pair):
        a, b = (MatrixProductState(sites=s) for s in pair)
        scale = norm(a) * norm(b)
        assert abs(overlap(a, b) - np.conj(overlap(b, a))) <= 1e-12 * scale

    @settings(max_examples=200, deadline=None)
    @given(canonical_chain())
    def test_truncation_error_does_not_increase_with_cap(self, m):
        errors = [svd_truncate_mps(m, cap)[1].error for cap in range(1, m.max_bond + 1)]
        assert errors[-1] == 0.0
        assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))


class TestExtractIsometries:
    def test_product_state_keeps_ancilla_trivial(self):
        v = np.zeros(8)
        v[0b101] = 1.0
        m = from_statevector(v)
        unitaries = extract_isometries(m)
        assert all(u.shape == (2, 2) for u in unitaries)
        joint = apply_step_unitaries(unitaries, 3, 1)
        fid = abs(np.vdot(np.kron([1.0], v), joint.reshape(-1)))
        assert fid > 1 - 1e-10

    def test_bell_state_sequence(self):
        bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        m = from_statevector(bell)
        unitaries = extract_isometries(m)
        joint = apply_step_unitaries(unitaries, 2, m.max_bond)
        w = joint @ bell.conj()
        assert np.linalg.norm(w) > 1 - 1e-10
        # decoupled: a single nonzero Schmidt value across ancilla | register
        s = np.linalg.svd(joint, compute_uv=False)
        assert s[1] < 1e-10

    def test_cloner_state_end_to_end(self):
        target = gm_state(GMSpec(2, KET_PLUS))
        m = from_statevector(target, 1e-10)
        unitaries = extract_isometries(m)
        dim = m.max_bond
        for u in unitaries:
            assert u.shape == (2 * dim, 2 * dim)
            assert np.allclose(u.conj().T @ u, np.eye(2 * dim), atol=1e-12)
        joint = apply_step_unitaries(unitaries, 3, dim)
        w = joint @ target.conj()
        assert np.linalg.norm(w) > 1 - 1e-10

    def test_random_state_regeneration(self):
        rng = np.random.default_rng(9)
        v = random_state(rng, 5)
        m = from_statevector(v)
        joint = apply_step_unitaries(extract_isometries(m), 5, m.max_bond)
        assert np.linalg.norm(joint @ v.conj()) > 1 - 1e-10

    def test_rejects_non_canonical(self):
        rng = np.random.default_rng(10)
        m = from_statevector(random_state(rng, 4))
        m.sites[1] = m.sites[1] * 2.0
        with pytest.raises(CanonicalFormError, match=r"defect 3\.0e\+00 > 1e-10"):
            extract_isometries(m)

    def test_synthesized_chain_regenerates(self):
        # a synthesized joint chain is canonical by construction: its sites
        # are columns of unitaries
        gen = optimize_schedule(gm_chain(GMSpec(2)), 3, aux=True, restarts=1, seed=3).generated
        joint = apply_step_unitaries(extract_isometries(gen), 4, gen.max_bond)
        assert np.max(np.abs(joint[0] - to_statevector(gen))) <= 1e-12
        assert np.max(np.abs(joint[1])) <= 1e-12


class TestJsonRoundtrip:
    def test_exact_roundtrip(self):
        rng = np.random.default_rng(11)
        m = from_statevector(random_state(rng, 5), 1e-12)
        text = to_json(m)
        doc = json.loads(text)
        assert doc["phi_initial"] == doc["phi_final"] == {"shape": [1], "data": ["1", "0"]}
        m2 = from_json(text)
        assert m2.n_qubits == m.n_qubits
        assert m2.canonical == m.canonical
        for a, b in zip(m.sites, m2.sites):
            assert np.array_equal(a, b)

    def test_signed_zeros_survive(self):
        # decoding as re + 1j * im would turn an imaginary -0.0 into +0.0
        site = np.array([[[complex(1.0, -0.0)]], [[complex(-0.0, -0.0)]]])
        m2 = from_json(to_json(MatrixProductState(sites=[site])))
        assert m2.sites[0].tobytes() == site.tobytes()

    def test_rejects_flag_that_disagrees_with_sites(self):
        doc = json.loads(to_json(gm_mps(GMSpec(3))))
        assert doc["canonical"] is True
        site = doc["sites"][1]
        site["data"] = [f"{2.0 * float(x):.17g}" for x in site["data"]]
        with pytest.raises(StructureError, match="canonical"):
            from_json(json.dumps(doc))

    def test_rejects_unknown_schema(self):
        with pytest.raises(StructureError, match="schema"):
            from_json('{"schema": "something-else"}')

    @pytest.mark.parametrize("edit, name", [
        (lambda doc: {k: v for k, v in doc.items() if k != "sites"}, "'sites'"),
        (lambda doc: {**doc, "sites": 5}, "'sites'"),
        (lambda doc: {**doc, "sites": [{"shape": [2, 1, 2], "data": ["1", "0"]}]}, r"sites\[0\]"),
        (lambda doc: {**doc, "phi_final": {"shape": [2], "data": ["1", "0"]}}, "phi_final"),
        (lambda doc: [doc], "JSON object"),
    ], ids=["no-sites", "sites-not-a-list", "short-site", "short-edge-vector", "top-level-array"])
    def test_malformed_document_raises_structure_error(self, edit, name):
        doc = json.loads(to_json(gm_mps(GMSpec(2))))
        with pytest.raises(StructureError, match=name):
            from_json(json.dumps(edit(doc)))

    @pytest.mark.parametrize("key", ["phi_final", "phi_initial"])
    def test_folds_edge_vector_into_edge_site(self, key):
        # a document may carry an edge vector, such as a synthesized joint
        # chain saved with its ancilla start |0> as "phi_initial": [1, 0]
        rng = np.random.default_rng(12)
        m = from_statevector(random_state(rng, 3))
        doc = json.loads(to_json(m))
        k, axis = (0, 1) if key == "phi_final" else (-1, 2)
        spare = rng.standard_normal(m.sites[k].shape) + 1j * rng.standard_normal(m.sites[k].shape)
        doc["sites"][k] = _encode_array(np.concatenate([m.sites[k], spare], axis=axis))
        doc[key] = _encode_array(np.array([1.0, 0.0]))
        m2 = from_json(json.dumps(doc))
        assert m2.bond_dimensions == m.bond_dimensions
        assert np.array_equal(m2.sites[k], m.sites[k])
        assert np.allclose(to_statevector(m2), to_statevector(m), atol=1e-15)


class TestStructureValidation:
    def test_bond_mismatch(self):
        good = np.zeros((2, 1, 2), dtype=complex)
        bad = np.zeros((2, 3, 1), dtype=complex)
        with pytest.raises(StructureError, match="bond"):
            MatrixProductState(sites=[good, bad])

    @pytest.mark.parametrize("shapes", [[(2, 2, 1)], [(2, 1, 2), (2, 2, 2)]])
    def test_edge_bonds_must_be_one(self, shapes):
        with pytest.raises(StructureError, match="edge bonds must be 1"):
            MatrixProductState(sites=[np.zeros(shape, dtype=complex) for shape in shapes])
