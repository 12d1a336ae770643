#!/usr/bin/env python3
"""SHA-256 digests of the outputs that a behaviour-preserving change keeps byte-identical.

Run from a checkout; the package is imported from its ``src/``::

    python3 tools/cli_digests.py > digests.txt
    python3 tools/cli_digests.py --check digests.txt

One line per output, ``<sha256>  <what>``.  Two checkouts produce the same
bytes exactly when ``diff`` of their listings is empty.  With ``--check
LISTING`` nothing is listed: the script compares its listing with a saved
one, prints each line that differs (``- `` saved, ``+ `` now) and exits 1
if any does, 0 if none, so a behaviour-preserving change's byte-identity
gate is one command run in its checkout against the parent's listing.
Covered:

* the byte-identity CLI list: both ``synthesize`` commands, ``regularize``
  at M = 2..8 with caps 2-4 and all three methods at ``--seed 1``,
  ``gm-info --mps-out`` for M = 1..8 (its table and its chain), and the
  multi-count table ``gm-info --clones 2,3``;
* the same ``regularize`` and ``gm-info`` runs at M = 50;
* the ``regularization_scan`` reports of the ``compress-scan`` plan at
  seed 1 (M = 2..8: caps 2-4 by truncation and seeded sweeping, caps 2-3 by
  unseeded sweeping), floats written as ``float.hex``;
* the global search of ``optimize_schedule`` (aux on, 2 restarts, seeds 0
  and 1) on two fixed random chains of 3 and 5 qubits that the restricted
  class cannot reach: fidelity, iterations, convergence flag and worst
  step residual, floats as ``float.hex``.

BLAS runs on one thread, as in the benchmark.  A listing takes about 5 s
on one core.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import difflib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from seqclone import cli, compression, mps  # noqa: E402
from seqclone.cloning import GMSpec  # noqa: E402
from seqclone.sequential import optimize_schedule  # noqa: E402

ALL_METHODS = "svd,variational,variational-unseeded"

SYNTHESIZE = [
    "synthesize --qubits 3,5 --restarts 2 --seed 11 --max-sweeps 6",
    "synthesize --qubits 3 --aux off --restarts 2 --seed 2 --max-sweeps 6 --format json",
]
REGULARIZE = [
    f"regularize --clones {clones} --bond-caps 2,3,4 --methods {ALL_METHODS} --seed 1"
    for clones in ("2,3,4,5,6,7,8", "50")
]
GM_INFO_CLONES = [*range(1, 9), 50]
# several clone counts in one table; --mps-out takes only one, so none here
GM_INFO_TABLES = ["gm-info --clones 2,3"]

COMPRESS_PLAN = [
    ([2, 3, 4], [compression.METHOD_SVD, compression.METHOD_VARIATIONAL_SEEDED]),
    ([2, 3], [compression.METHOD_VARIATIONAL]),
]


def run(command: str, workdir: Path, mps_out=False) -> list[tuple[str, bytes]]:
    """Run one CLI command; returns (label, bytes) for its table and, with
    ``mps_out``, its chain."""
    out, chain = workdir / "table", workdir / "chain.json"
    argv = command.split() + ["-o", str(out)]
    if mps_out:
        argv += ["--mps-out", str(chain)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"{command!r} exited with {code}: {err.getvalue().strip()}")
    outputs = [(command, out.read_bytes())]
    if mps_out:
        outputs.append((f"{command} --mps-out (chain)", chain.read_bytes()))
    return outputs


def scan_rows(clones: int) -> bytes:
    lines = []
    for caps, methods in COMPRESS_PLAN:
        for r in compression.regularization_scan(GMSpec(clones), caps, methods, seed=1):
            errors = ",".join(e.hex() for e in r.sweep_errors)
            lines.append(
                f"{r.bond_cap} {r.method} {r.fidelity.hex()} {r.sweeps_used} "
                f"{r.converged} [{errors}]"
            )
    return "\n".join(lines).encode()


def search_targets() -> dict[int, mps.MatrixProductState]:
    """Random complex chains of full bond, normalized, one per register size."""
    rng = np.random.default_rng(0)
    targets = {}
    for n in (3, 5):
        bonds = [min(2**k, 2 ** (n - k)) for k in range(n + 1)]
        sites = [rng.standard_normal((2, left, right)) + 1j * rng.standard_normal((2, left, right))
                 for left, right in zip(bonds, bonds[1:])]
        sites[0] = sites[0] / mps.norm(mps.MatrixProductState(sites=sites))
        targets[n] = mps.MatrixProductState(sites=sites)
    return targets


def search_row(target, n, seed) -> bytes:
    res = optimize_schedule(target, n, aux=True, restarts=2, seed=seed)
    residual = res.step_residuals.max()
    if not residual > 1e-12:
        raise SystemExit(f"n={n}, seed {seed}: certified (residual {residual:.1e}), no search ran")
    return f"{res.fidelity.hex()} {res.iterations} {res.converged} {residual.hex()}".encode()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", metavar="LISTING", type=Path,
        help="compare with a saved listing; print the lines that differ and exit 1 if any",
    )
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        outputs = []
        for command in SYNTHESIZE + REGULARIZE + GM_INFO_TABLES:
            outputs += run(command, workdir)
        for clones in GM_INFO_CLONES:
            outputs += run(f"gm-info --clones {clones}", workdir, mps_out=True)
    for clones in range(2, 9):
        outputs.append((f"regularization_scan rows, compress-scan plan, M={clones}, seed 1",
                        scan_rows(clones)))
    for n, target in search_targets().items():
        for seed in (0, 1):
            outputs.append((f"optimize_schedule global search, n={n}, restarts 2, seed {seed}",
                            search_row(target, n, seed)))
    listing = [f"{hashlib.sha256(data).hexdigest()}  {label}" for label, data in outputs]
    if args.check is None:
        print("\n".join(listing))
        return 0
    saved = args.check.read_text().splitlines()
    differ = [line for line in difflib.ndiff(saved, listing) if line[0] in "-+"]
    for line in differ:
        print(line)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
