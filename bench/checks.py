"""Correctness checks of benchmark outputs against :mod:`oracles`.

Each check takes plain data (numbers, rows, text) and returns a list of
problems; an empty list means the output passed.  ``selftest.py`` shows that
each check rejects a deliberately perturbed output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import oracles

#: largest amplitude difference between the package's and the reference state
STATE_TOL = 1e-12
#: rounding allowance below a provable Schmidt floor
BELOW_FLOOR = 1e-10
#: largest accepted compression error above the floor; the worst seen at
#: the parent commit is 4.4e-8 (unseeded ALS), truncation sits within 5e-15
COMPRESSION_MARGIN = 1e-6
#: rounding allowance for a fidelity above 1 (the package's own tolerance)
FIDELITY_SLACK = 1e-12
#: n = 3 synthesis must prepare the target to this error
N3_MAX_ERROR = 1e-6
#: n = 5 synthesis must end this close above its bond-2 floor (1.2e-5 at
#: the parent commit)
N5_MARGIN = 1e-3
#: reported fidelity against the dense re-simulation of the schedule
RESIM_TOL = 1e-10
#: clone fidelity and weights against their closed forms
CLOSED_FORM_TOL = 1e-12

SVD = "svd_truncation"
SEEDED = "variational_seeded_by_svd"


@dataclass
class Reference:
    state: np.ndarray
    spectra: list
    profile: list


def reference_state(m, alpha, beta) -> Reference:
    state = oracles.cloner_state(m, alpha, beta)
    spectra = oracles.schmidt_values(state)
    return Reference(state, spectra, oracles.bond_profile(spectra))


def identical_rounds(rounds) -> list[str]:
    return [f"round {k} output differs from round 0" for k, r in enumerate(rounds) if r != rounds[0]]


def cloner_state(got, ref: Reference, label) -> list[str]:
    got = np.asarray(got)
    if got.shape != ref.state.shape:
        return [f"{label}: state shape {got.shape}, expected {ref.state.shape}"]
    diff = float(np.max(np.abs(got - ref.state)))
    return [] if diff <= STATE_TOL else [f"{label}: state differs from closed form by {diff:.2e}"]


def compression_rows(rows, spectra_by_m) -> list[str]:
    """Error within [floor - 1e-10, floor + margin]; seeded ALS <= truncation."""
    problems = []
    errors = {}
    for r in rows:
        label = f"M={r['M']} cap={r['cap']} {r['method']}"
        floor = oracles.schmidt_floor(spectra_by_m[r["M"]], r["cap"])
        if not r["error"] >= floor - BELOW_FLOOR:
            problems.append(f"{label}: error {r['error']:.6e} below floor {floor:.6e}")
        if not r["error"] <= floor + COMPRESSION_MARGIN:
            problems.append(f"{label}: error {r['error']:.6e} above floor {floor:.6e} + margin")
        if abs(r["error"] - (1.0 - r["fidelity"])) > 1e-15:
            problems.append(f"{label}: error is not 1 - fidelity")
        errors[(r["M"], r["cap"], r["method"])] = r["error"]
    for (m, cap, method), err in errors.items():
        base = errors.get((m, cap, SVD))
        if method == SEEDED and base is not None and err > base:
            problems.append(f"M={m} cap={cap}: seeded ALS {err:.6e} worse than truncation {base:.6e}")
    return problems


def synthesis_row(row, ref: Reference) -> list[str]:
    """Re-simulated fidelity matches; n = 3 exact, n = 5 at its bond-2 floor."""
    n, f = row["n"], row["fidelity"]
    label = f"synthesis n={n}"
    problems = []
    if not -FIDELITY_SLACK <= f <= 1.0 + FIDELITY_SLACK:
        problems.append(f"{label}: fidelity {f!r} out of range")
    resim = oracles.schedule_fidelity(
        row["steps"], row["aux_qubit"], row["aux_ancilla"], row["aux_enabled"], ref.state
    )
    if not abs(resim - f) <= RESIM_TOL:
        problems.append(f"{label}: reported fidelity {f!r}, re-simulated {resim!r}")
    floor = oracles.schmidt_floor(ref.spectra, 2)
    if not row["error"] >= floor - BELOW_FLOOR:
        problems.append(f"{label}: error {row['error']:.6e} below bond-2 floor {floor:.6e}")
    if n == 3 and not row["error"] <= N3_MAX_ERROR:
        problems.append(f"{label}: error {row['error']:.3e} above {N3_MAX_ERROR}")
    if n == 5 and not row["error"] <= floor + N5_MARGIN:
        problems.append(f"{label}: error {row['error']:.6e} not near bond-2 floor {floor:.6e}")
    return problems


def synthesis_json(doc, ref: Reference) -> list[str]:
    """The CLI's one-row n = 3 synthesis document is in range and consistent."""
    rows = doc.get("rows", [])
    if doc.get("schema") != "seqclone.results/1" or len(rows) != 1:
        return ["synthesize.json: unexpected schema or row count"]
    row = rows[0]
    f, err = row["fidelity"], row["error"]
    problems = []
    if row["n"] != 3 or row["aux"] != "on":
        problems.append("synthesize.json: unexpected configuration")
    if not -FIDELITY_SLACK <= f <= 1.0 + FIDELITY_SLACK:
        problems.append(f"synthesize.json: fidelity {f!r} out of range")
    if abs(err - (1.0 - f)) > 1e-15:
        problems.append("synthesize.json: error is not 1 - fidelity")
    floor = oracles.schmidt_floor(ref.spectra, 2)
    if not err >= floor - BELOW_FLOOR:
        problems.append(f"synthesize.json: error {err:.6e} below floor {floor:.6e}")
    return problems


def gm_info_rows(rows, m, ref: Reference) -> list[str]:
    """Weights, bond profile and clone fidelities against closed forms."""
    label = f"gm-info M={m}"
    got = {}
    for r in rows:
        if int(r["M"]) != m or int(r["n"]) != 2 * m - 1:
            return [f"{label}: row for another register"]
        index = int(r["index"]) if r["index"] else None
        got[(r["record"], index)] = float(r["value"])
    expected = {("alpha", j): a for j, a in enumerate(oracles.gm_weights(m))}
    expected.update({("bond_dim", c): d for c, d in enumerate(ref.profile)})
    expected[("max_bond", None)] = max(ref.profile)
    expected.update({("clone_fidelity", i): oracles.clone_fidelity(m) for i in range(1, m + 1)})
    if set(got) != set(expected):
        return [f"{label}: records {sorted(map(str, set(got) ^ set(expected)))} differ"]
    return [
        f"{label}: {key} = {got[key]!r}, expected {value!r}"
        for key, value in expected.items()
        if not abs(got[key] - value) <= CLOSED_FORM_TOL
    ]


def mps_document(text, ref: Reference, label) -> list[str]:
    """Decoded chain has the reference bond profile and amplitudes."""
    try:
        bonds, amps = oracles.decode_mps_document(text)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{label}: cannot decode ({exc})"]
    problems = []
    if bonds != ref.profile:
        problems.append(f"{label}: bonds {bonds}, expected {ref.profile}")
    if amps.shape != ref.state.shape:
        return problems + [f"{label}: {amps.size} amplitudes, expected {ref.state.size}"]
    ip = complex(np.vdot(ref.state, amps))
    phase = ip / abs(ip) if abs(ip) > 0 else 1.0
    diff = float(np.max(np.abs(amps - phase * ref.state)))
    if not diff <= STATE_TOL or not math.isclose(abs(ip), 1.0, abs_tol=STATE_TOL):
        problems.append(f"{label}: amplitudes differ from closed form by {diff:.2e}")
    return problems
