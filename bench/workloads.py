"""The benchmark's three workloads.

Each workload has ``setup(seed)``, which imports ``seqclone`` and builds the
inputs every round reuses; ``run_round(inputs, tracer)``, one round of
fixed operations, returning ``(outputs, attempted, failed)``; and
``check(inputs, rounds)``, which compares the outputs of every round with
the independent references in :mod:`oracles` and returns the problems found.
An operation is one scan point, one restart or one CLI invocation; one that
raises is counted as failed and its traceback goes to standard error.

Only ``check`` imports the references, so set-up measures ``seqclone`` alone.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import sys
import traceback
from pathlib import Path

RESULTS = Path(__file__).resolve().parent / "results"

PLUS = (2**-0.5, 2**-0.5)


def random_qubit(seed):
    """``cos(t/2)|0> + exp(ip) sin(t/2)|1>``, uniform on the Bloch sphere."""
    import numpy as np

    rng = np.random.default_rng(seed)
    t = math.acos(1.0 - 2.0 * rng.uniform())
    p = rng.uniform(0.0, 2.0 * math.pi)
    return complex(math.cos(t / 2)), complex(math.cos(p), math.sin(p)) * math.sin(t / 2)


# --- compress-scan ----------------------------------------------------------
#
# The paper's D <= 3 question: every cloner state up to n = 15 at caps 2-4,
# by truncation, seeded ALS and unseeded ALS.  Unseeded ALS runs at caps 2
# and 3 only: at cap 4 it fails on some seeds (README.md, "Faults left
# out").  Input |+>; the seed drives the ALS starting points.

COMPRESS_CLONES = range(2, 9)


def compress_setup(seed):
    from seqclone import cloning, compression

    return {
        "seed": seed,
        "specs": [cloning.GMSpec(m) for m in COMPRESS_CLONES],
        "plan": [
            ([2, 3, 4], [compression.METHOD_SVD, compression.METHOD_VARIATIONAL_SEEDED]),
            ([2, 3], [compression.METHOD_VARIATIONAL]),
        ],
    }


def compress_round(inputs, tracer=None):
    from seqclone import compression

    rows, attempted, failed = [], 0, 0
    for spec in inputs["specs"]:
        for caps, methods in inputs["plan"]:
            points = len(caps) * len(methods)
            attempted += points
            try:
                reports = compression.regularization_scan(
                    spec, caps, methods, seed=inputs["seed"]
                )
            except Exception:  # noqa: BLE001 - a failed scan point is counted
                traceback.print_exc(file=sys.stderr)
                failed += points
                continue
            for r in reports:
                rows.append({
                    "M": spec.clones, "cap": r.bond_cap, "method": r.method,
                    "fidelity": r.fidelity, "error": r.error,
                    "sweeps": r.sweeps_used, "converged": r.converged,
                })
    return rows, attempted, failed


def compress_check(inputs, rounds):
    from seqclone import cloning
    import checks


    problems = checks.identical_rounds(rounds)
    refs = {}
    for spec in inputs["specs"]:
        ref = checks.reference_state(spec.clones, *PLUS)
        problems += checks.cloner_state(cloning.gm_state(spec), ref, f"M={spec.clones}")
        refs[spec.clones] = ref.spectra
    problems += checks.compression_rows(rounds[0], refs)
    return problems


# --- xxz-synth --------------------------------------------------------------
#
# The paper's restricted-interaction question: XXZ entangler plus local
# rotations on both legs (aux on).  n = 3 runs to convergence; n = 5 runs a
# fixed sweep budget (sweep_tol 0 never stops early) and reaches its bond-2
# floor in the closing polish.  The restart seeds are fixed and the seed
# argument is not used: the sweeps a restart needs vary by up to 50% with its
# starting point, which would make round_s measure the seed.

SYNTH_RESTARTS = [
    # (n, restart seed, keyword arguments of optimize_schedule)
    (3, 3, {"max_sweeps": 60, "inner_maxfev": 300}),
    (5, 5, {"max_sweeps": 3, "inner_maxfev": 300, "sweep_tol": 0.0}),
]


def synth_setup(seed):
    from seqclone import cloning

    return {
        "targets": {n: cloning.gm_state(cloning.GMSpec((n + 1) // 2)) for n, _, _ in SYNTH_RESTARTS}
    }


def synth_round(inputs, tracer=None):
    from seqclone import sequential

    rows, failed = [], 0
    for n, seed, options in SYNTH_RESTARTS:
        try:
            result = sequential.optimize_schedule(
                inputs["targets"][n], n, aux=True, restarts=1, seed=seed, **options
            )
        except Exception:  # noqa: BLE001 - a failed restart is counted
            traceback.print_exc(file=sys.stderr)
            failed += 1
            continue
        s = result.schedule
        rows.append({
            "n": n, "fidelity": result.fidelity, "error": 1.0 - result.fidelity,
            "sweeps": result.iterations, "converged": result.converged,
            "steps": [[c.h1, c.h2] for c in s.steps],
            "aux_qubit": s.aux_qubit.tolist(), "aux_ancilla": s.aux_ancilla.tolist(),
            "aux_enabled": s.aux_enabled,
        })
    return rows, len(SYNTH_RESTARTS), failed


def synth_check(inputs, rounds):
    import checks

    problems = checks.identical_rounds(rounds)
    for row in rounds[0]:
        n = row["n"]
        ref = checks.reference_state((n + 1) // 2, *PLUS)
        problems += checks.cloner_state(inputs["targets"][n], ref, f"n={n} target")
        problems += checks.synthesis_row(row, ref)
    return problems


# --- cli-roundtrip ----------------------------------------------------------
#
# The CLI as a user runs it, in-process and serial: a regularize scan to CSV,
# gm-info once per clone count with its own --mps-out, and one small
# synthesize to JSON.  The CLI rebuilds the dense target for every scan
# point and clone-fidelity index, so target construction dominates here,
# unlike compress-scan.  The seed picks the input qubit and the CLI seed of
# regularize and gm-info.

CLI_DIR = RESULTS / "cli-roundtrip"
CLI_INFO_CLONES = range(1, 9)


def _cli_commands(seed, qubit):
    common = ["--threads", "1", "--seed", str(seed), "--input-qubit", qubit]
    commands = [(
        "regularize",
        ["regularize", "--clones", "2,3,4,5,6,7,8", "--bond-caps", "2,3",
         "--methods", "svd,variational", "-o", str(CLI_DIR / "regularize.csv")] + common,
    )]
    for m in CLI_INFO_CLONES:
        commands.append((
            "gm_info",
            ["gm-info", "--clones", str(m), "--mps-out", str(CLI_DIR / f"chain-{m}.json"),
             "-o", str(CLI_DIR / f"info-{m}.csv")] + common,
        ))
    # default input |+> and a fixed seed: the closing polish of this restart
    # takes 4849 to 9600 evaluations depending on both
    commands.append((
        "synthesize",
        ["synthesize", "--qubits", "3", "--aux", "on", "--restarts", "1",
         "--max-sweeps", "2", "--format", "json", "-o", str(CLI_DIR / "synthesize.json"),
         "--threads", "1", "--seed", "0"],
    ))
    return commands


def cli_setup(seed):
    from seqclone import cli

    alpha, beta = random_qubit(seed)
    qubit = f"{alpha.real!r},{alpha.imag!r};{beta.real!r},{beta.imag!r}"
    CLI_DIR.mkdir(parents=True, exist_ok=True)
    return {
        "main": cli.main,
        "input": (alpha, beta),
        "commands": _cli_commands(seed, qubit),
    }


def cli_round(inputs, tracer=None):
    failed = 0
    for f in CLI_DIR.iterdir():
        f.unlink()
    for kind, argv in inputs["commands"]:
        span = tracer.begin("cli." + kind) if tracer else None
        try:
            code = inputs["main"](argv)
        except Exception:  # noqa: BLE001 - a failed invocation is counted
            traceback.print_exc(file=sys.stderr)
            code = None
        finally:
            if tracer:
                tracer.end(span)
        failed += code != 0
    files = {f.name: f.read_bytes() for f in sorted(CLI_DIR.iterdir())}
    if tracer:
        tracer.counts["cli.output_bytes"] += sum(len(data) for data in files.values())
    return files, len(inputs["commands"]), failed


def cli_check(inputs, rounds):
    import checks

    digests = [
        {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}
        for files in rounds
    ]
    problems = checks.identical_rounds(digests)
    files = rounds[0]
    alpha, beta = inputs["input"]
    refs = {m: checks.reference_state(m, alpha, beta) for m in CLI_INFO_CLONES}

    text = files.get("regularize.csv", b"").decode()
    rows = [
        {"M": int(r["M"]), "cap": int(r["bond_cap"]), "method": r["method"],
         "fidelity": float(r["fidelity"]), "error": float(r["error"])}
        for r in csv.DictReader(io.StringIO(text))
    ]
    if len(rows) != 28:
        problems.append(f"regularize: {len(rows)} rows, expected 28")
    problems += checks.compression_rows(rows, {m: refs[m].spectra for m in refs})

    for m in CLI_INFO_CLONES:
        info = files.get(f"info-{m}.csv", b"").decode()
        problems += checks.gm_info_rows(list(csv.DictReader(io.StringIO(info))), m, refs[m])
        chain = files.get(f"chain-{m}.json", b"").decode()
        problems += checks.mps_document(chain, refs[m], f"chain-{m}.json")

    try:
        doc = json.loads(files.get("synthesize.json", b"").decode())
        problems += checks.synthesis_json(doc, checks.reference_state(2, *PLUS))
    except ValueError as exc:
        problems.append(f"synthesize.json: {exc}")
    return problems


WORKLOADS = {
    "compress-scan": (compress_setup, compress_round, compress_check),
    "xxz-synth": (synth_setup, synth_round, synth_check),
    "cli-roundtrip": (cli_setup, cli_round, cli_check),
}
