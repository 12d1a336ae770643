#!/usr/bin/env python3
"""Shows that every benchmark check accepts a real output and rejects a
deliberately perturbed copy of it.

Run from the repository root (about 10 s)::

    python3 bench/selftest.py

Exits 1 if a clean output is rejected or a perturbed one is accepted.
"""

import run  # noqa: F401, I001 - first: pins BLAS threads, puts src/ on the path

import copy
import csv
import io
import json
import sys

import numpy as np

import checks
import workloads
from seqclone import cli, cloning, compression, sequential

OUT = workloads.RESULTS / "selftest"
PLUS = workloads.PLUS

failures = []


def expect(label, problems, rejected):
    ok = bool(problems) == rejected
    print(f"{'ok  ' if ok else 'FAIL'} {'rejects' if rejected else 'accepts'} {label}")
    if not ok:
        failures.append(label)


def perturbed(rows, index, **changes):
    out = copy.deepcopy(rows)
    out[index].update(changes)
    return out


def check_state_and_rounds():
    ref = checks.reference_state(3, *PLUS)
    state = cloning.gm_state(cloning.GMSpec(3))
    expect("gm_state against the closed form", checks.cloner_state(state, ref, "M=3"), False)
    bad = state.copy()
    bad[5] += 1e-9
    expect("a cloner state off by 1e-9", checks.cloner_state(bad, ref, "M=3"), True)
    expect("identical rounds", checks.identical_rounds([[1.0], [1.0]]), False)
    expect("a round that differs", checks.identical_rounds([[0.5], [0.5 + 2**-53]]), True)


def check_compression():
    spec = cloning.GMSpec(4)
    reports = compression.regularization_scan(
        spec, [2, 3], [checks.SVD, checks.SEEDED, compression.METHOD_VARIATIONAL], seed=1
    )
    rows = [
        {"M": 4, "cap": r.bond_cap, "method": r.method, "fidelity": r.fidelity, "error": r.error}
        for r in reports
    ]
    spectra = {4: checks.reference_state(4, *PLUS).spectra}
    expect("M=4 compression scan", checks.compression_rows(rows, spectra), False)
    below = rows[0]["error"] - 1e-8
    expect("an error below the Schmidt floor",
           checks.compression_rows(perturbed(rows, 0, error=below, fidelity=1 - below), spectra), True)
    above = rows[2]["error"] + 1e-5
    expect("an error far above the Schmidt floor",
           checks.compression_rows(perturbed(rows, 2, error=above, fidelity=1 - above), spectra), True)
    worse = rows[0]["error"] + 1e-9
    expect("seeded ALS worse than truncation",
           checks.compression_rows(perturbed(rows, 1, error=worse, fidelity=1 - worse), spectra), True)
    expect("an error that is not 1 - fidelity",
           checks.compression_rows(
               perturbed(rows, 0, fidelity=rows[0]["fidelity"] - 1e-9), spectra), True)


def check_synthesis():
    inputs = {"targets": {3: cloning.gm_state(cloning.GMSpec(2))}}
    n, seed, options = workloads.SYNTH_RESTARTS[0]
    result = sequential.optimize_schedule(
        inputs["targets"][n], n, True, restarts=1, seed=seed, **options
    )
    s = result.schedule
    row = {
        "n": 3, "fidelity": result.fidelity, "error": 1 - result.fidelity,
        "steps": [[c.h1, c.h2] for c in s.steps], "aux_qubit": s.aux_qubit.tolist(),
        "aux_ancilla": s.aux_ancilla.tolist(), "aux_enabled": True,
    }
    ref3 = checks.reference_state(2, *PLUS)
    expect("n=3 synthesis", checks.synthesis_row(row, ref3), False)
    bad = copy.deepcopy(row)
    bad["steps"][1][0] += 1e-3
    expect("a schedule that does not give its fidelity", checks.synthesis_row(bad, ref3), True)
    above = dict(row, fidelity=1 + 1e-9, error=-1e-9)
    expect("a fidelity above 1", checks.synthesis_row(above, ref3), True)

    # a consistent n = 5 schedule far from the floor: random couplings
    rng = np.random.default_rng(0)
    steps = rng.uniform(-1, 1, (5, 2)).tolist()
    angles = rng.uniform(0, 6, (5, 3)).tolist()
    ref5 = checks.reference_state(3, *PLUS)
    f = checks.oracles.schedule_fidelity(steps, angles, angles, True, ref5.state)
    far = {"n": 5, "fidelity": f, "error": 1 - f, "steps": steps,
           "aux_qubit": angles, "aux_ancilla": angles, "aux_enabled": True}
    expect("an n=5 schedule far above its bond-2 floor", checks.synthesis_row(far, ref5), True)

    doc = {"schema": "seqclone.results/1", "rows": [
        {"n": 3, "aux": "on", "fidelity": result.fidelity, "error": 1 - result.fidelity}]}
    expect("CLI synthesis document", checks.synthesis_json(doc, ref3), False)
    bad = copy.deepcopy(doc)
    bad["rows"][0].update(fidelity=1 + 1e-9, error=-1e-9)
    expect("a CLI fidelity above 1", checks.synthesis_json(bad, ref3), True)
    bad["rows"][0].update(fidelity=0.5, error=0.25)
    expect("a CLI error that is not 1 - fidelity", checks.synthesis_json(bad, ref3), True)


def check_gm_info_and_mps():
    OUT.mkdir(parents=True, exist_ok=True)
    info, chain = OUT / "info.csv", OUT / "chain.json"
    code = cli.main(
        ["gm-info", "--clones", "3", "--mps-out", str(chain), "-o", str(info), "--threads", "1"]
    )
    expect("gm-info exit code", [code] if code else [], False)
    rows = list(csv.DictReader(io.StringIO(info.read_text())))
    ref = checks.reference_state(3, *PLUS)
    expect("gm-info records", checks.gm_info_rows(rows, 3, ref), False)
    wrong = [("alpha", "1", 1e-9), ("bond_dim", "2", 1), ("clone_fidelity", "2", 1e-9)]
    for record, index, delta in wrong:
        k = next(i for i, r in enumerate(rows) if r["record"] == record and r["index"] == index)
        bad = perturbed(rows, k, value=repr(float(rows[k]["value"]) + delta))
        expect(f"a wrong {record} record", checks.gm_info_rows(bad, 3, ref), True)
    expect("a missing record", checks.gm_info_rows(rows[:-1], 3, ref), True)

    text = chain.read_text()
    expect("the --mps-out chain", checks.mps_document(text, ref, "chain"), False)
    doc = json.loads(text)
    doc["sites"][1]["data"][0] = repr(float(doc["sites"][1]["data"][0]) + 1e-9)
    expect("a chain with one amplitude changed",
           checks.mps_document(json.dumps(doc), ref, "chain"), True)
    expect("a chain of another state",
           checks.mps_document(text, checks.reference_state(3, 1.0, 0.0), "chain"), True)
    expect("a document of another schema",
           checks.mps_document(text.replace("seqclone.mps/1", "seqclone.mps/0"), ref, "chain"), True)


if __name__ == "__main__":
    check_state_and_rounds()
    check_compression()
    check_synthesis()
    check_gm_info_and_mps()
    print(f"{len(failures)} check(s) misbehaved" if failures else "every check behaved")
    sys.exit(1 if failures else 0)
