#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of ``seqclone``.

Run from the repository root::

    python3 bench/run.py --workload compress-scan --seed 1 --seconds 25 --trace 0

Workloads: ``compress-scan``, ``xxz-synth``, ``cli-roundtrip`` (see
``workloads.py`` and README.md).  The package is imported from ``src/`` of
the checkout the script sits in; without it the run fails before printing a
result.

With ``--trace 0`` the run reports ``setup_s`` (median of fresh-interpreter
set-ups), ``round_s`` (median round time) and ``peak_rss_mb``.  With
``--trace 1`` it alternates traced and untraced rounds and reports the
per-layer metrics of the traced ones plus the tracing overhead.  Either way
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; details go to ``bench/results/``.
"""

import os

# One BLAS thread: set before numpy is first imported, here and in children.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

#: fresh-interpreter set-ups per untraced run; setup_s is their median
SETUP_PROBES = 5
#: rounds per run at least; round_s is their median.  A traced run needs
#: one traced and one untraced round.
MIN_ROUNDS = {0: 3, 1: 2}
PROBE_TIMEOUT_S = 60


def _median_per_round(snaps, kind, name):
    return statistics.median(s[kind].get(name, 0.0) for s in snaps)


def _mean_count(snaps, name):
    total = sum(s["counts"].get(name, 0) for s in snaps)
    return total // len(snaps) if total % len(snaps) == 0 else total / len(snaps)


def _ratio(num, den, scale):
    return num / den * scale if den else 0.0


def per_layer_metrics(snaps):
    """Per-round per-layer metrics: counts are means, times medians."""
    def calls(name):
        return _mean_count(snaps, name), "count"

    def self_s(name):
        return _median_per_round(snaps, "self_s", name), "s"

    def total_s(name):
        return _median_per_round(snaps, "total_s", name), "s"

    als_sweeps = _mean_count(snaps, "compression.als_sweeps")
    block_evals = _mean_count(snaps, "sequential.block_solve.evals")
    m = {
        "cloning.gm_state.calls": calls("cloning.gm_state"),
        "cloning.gm_state.self_s": self_s("cloning.gm_state"),
        "cloning.gm_state.rebuilds": (
            _mean_count(snaps, "cloning.gm_state") - _mean_count(snaps, "cloning.gm_state.distinct"),
            "count",
        ),
        "cloning.clone_fidelity_oracle.calls": calls("cloning.clone_fidelity_oracle"),
        "cloning.clone_fidelity_oracle.self_s": self_s("cloning.clone_fidelity_oracle"),
        "mps.from_statevector.calls": calls("mps.from_statevector"),
        "mps.from_statevector.self_s": self_s("mps.from_statevector"),
        "mps.overlap.calls": calls("mps.overlap"),
        "mps.overlap.self_s": self_s("mps.overlap"),
        "mps.to_json.self_s": self_s("mps.to_json"),
        "mps.to_json.bytes": (_mean_count(snaps, "mps.to_json.bytes"), "bytes"),
        "linalg.svd.calls": calls("linalg.svd"),
        "linalg.svd.self_s": self_s("linalg.svd"),
        "compression.svd_truncate_mps.calls": calls("compression.svd_truncate_mps"),
        "compression.svd_truncate_mps.self_s": self_s("compression.svd_truncate_mps"),
        "compression.variational_compress.calls": calls("compression.variational_compress"),
        "compression.variational_compress.self_s": self_s("compression.variational_compress"),
        "compression.als_sweeps": (als_sweeps, "count"),
        "compression.als_sweep_ms": (
            _ratio(self_s("compression.variational_compress")[0], als_sweeps, 1e3),
            "ms",
        ),
        "compression.als_unconverged": calls("compression.als_unconverged"),
        "sequential.optimize_schedule.self_s": self_s("sequential.optimize_schedule"),
        "sequential.sweeps": calls("sequential.sweeps"),
        "sequential.block_solves": calls("sequential.block_solve.calls"),
        "sequential.block_evals": (block_evals, "count"),
        "sequential.block_eval_us": (
            _ratio(total_s("sequential.block_solve")[0], block_evals, 1e6),
            "us",
        ),
        "sequential.polish_evals": calls("sequential.polish.evals"),
        "sequential.polish_s": total_s("sequential.polish"),
        "sequential.xxz_unitary.calls": calls("sequential.xxz_unitary"),
        "sequential.euler_zyz.calls": calls("sequential.euler_zyz"),
        "cli.regularize.s": total_s("cli.regularize"),
        "cli.gm_info.s": total_s("cli.gm_info"),
        "cli.synthesize.s": total_s("cli.synthesize"),
        "cli.output_bytes": (_mean_count(snaps, "cli.output_bytes"), "bytes"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in m.items()}


def measure_setup(workload, seed):
    """Seconds from spawning a fresh interpreter until its inputs are built."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True, cwd=ROOT,
        )
        samples.append(float(done.stdout.split()[-1]) - start)
    return samples


def _digest(value):
    """JSON stand-in for round outputs json cannot hold (CLI file bytes)."""
    if isinstance(value, bytes):
        return {"bytes": len(value), "sha256": hashlib.sha256(value).hexdigest()}
    return str(value)


def _steal_ticks():
    """Machine-wide CPU time taken by the hypervisor (Linux ``/proc/stat``)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return 0


def environment():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {var: os.environ[var] for var in BLAS_ENV},
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    setup, run_round, check = workloads.WORKLOADS[args.workload]

    if args.setup_probe:
        setup(args.seed)
        print(time.monotonic())
        return 0

    import seqclone

    if not Path(seqclone.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"seqclone imported from {seqclone.__file__}, not from {ROOT / 'src'}")

    inputs = setup(args.seed)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    outputs, times, snaps, host = [], {"traced": [], "untraced": []}, [], []
    attempted = failed = 0
    start = time.perf_counter()
    k = 0
    while k < MIN_ROUNDS[args.trace] or time.perf_counter() - start < args.seconds:
        traced = tracer is not None and k % 2 == 0
        if traced:
            tracer.install()
            span = tracer.begin("round")
        steal0, cpu0, t0 = _steal_ticks(), time.process_time(), time.perf_counter()
        out, a, f = run_round(inputs, tracer if traced else None)
        elapsed = time.perf_counter() - t0
        host.append({"wall_s": elapsed, "cpu_s": time.process_time() - cpu0,
                     "steal_ticks": _steal_ticks() - steal0})
        if traced:
            tracer.end(span)
            tracer.remove()
            snaps.append(tracer.snapshot())
        times["traced" if traced else "untraced"].append(elapsed)
        outputs.append(out)
        attempted += a
        failed += f
        k += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_samples = [] if args.trace else measure_setup(args.workload, args.seed)

    problems = check(inputs, outputs) if failed < attempted else ["every operation failed"]
    for p in problems:
        print("CHECK FAILED:", p, file=sys.stderr)

    if tracer:
        metrics = per_layer_metrics(snaps)
        traced_s = statistics.median(times["traced"])
        untraced_s = statistics.median(times["untraced"])
        metrics["trace.round_s"] = {"value": traced_s, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_s - untraced_s, "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "round_s": {"value": statistics.median(times["untraced"]), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }

    workloads.RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "environment": environment(), "setup_samples_s": setup_samples,
        "round_times_s": times, "round_host": host, "peak_rss_mb": peak_rss_mb, "problems": problems,
        "per_round_layers": snaps, "first_round_outputs": outputs[0], "result": result,
    }
    with open(workloads.RESULTS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1, default=_digest)
    if tracer:
        tracer.dump(workloads.RESULTS / f"{stem}-spans.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
