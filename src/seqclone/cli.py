"""Reproducible experiment runner.

Three experiments, each emitting a machine-readable table (CSV or JSON):

* ``regularize`` — bond-cap scan: compress cloner states at several bond
  caps and methods, one row per scan point.
* ``synthesize`` — restricted-interaction synthesis: optimize coupling
  schedules against cloner targets, one row per register size.
* ``gm-info`` — structural facts of a cloner state: coefficient list,
  exact bond profile, per-clone fidelity oracle.

Determinism contract: identical configuration plus identical seed produce a
byte-identical output file.  Wall-clock timings therefore stay out of the
file unless ``--timing`` is passed.  Scan points may run in a process pool
(``--threads``); rows are emitted in scan order regardless of completion
order, and per-restart seeds are spawned hierarchically from the master
seed, so parallel and serial runs agree.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import io
import json
import os
import sys
import time

from . import compression, mps as mps_mod, sequential
from .cloning import GMSpec, PureQubit, clone_fidelity_oracle, gm_coefficients, gm_mps, gm_state
from .errors import ResourceLimitError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESOURCE = 3

RESULT_SCHEMA = "seqclone.results/1"
DEFAULT_MAX_QUBITS = compression.MAX_SCAN_QUBITS

_METHOD_ALIASES = {
    "svd": compression.METHOD_SVD,
    "svd_truncation": compression.METHOD_SVD,
    "variational": compression.METHOD_VARIATIONAL_SEEDED,
    "variational_seeded_by_svd": compression.METHOD_VARIATIONAL_SEEDED,
    "variational-unseeded": compression.METHOD_VARIATIONAL,
    "variational_unseeded": compression.METHOD_VARIATIONAL,
}

RESULT_COLUMNS = [
    "experiment", "n", "M", "bond_cap", "aux", "method",
    "fidelity", "error", "sweeps", "restarts", "wall_seconds", "seed",
]

INFO_COLUMNS = ["experiment", "n", "M", "record", "index", "value"]


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    if x is None:
        return ""
    return str(x)


def _parse_int_list(text: str | None, field: str) -> list[int]:
    if text is None:
        raise ConfigError(f"{field}: required (flag or config file)")
    try:
        values = [int(tok) for tok in str(text).split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"{field}: expected comma-separated integers, got {text!r}") from exc
    if not values:
        raise ConfigError(f"{field}: at least one value required")
    return values


def _parse_input_qubit(text: str) -> PureQubit:
    parts = str(text).split(";")
    if len(parts) != 2:
        raise ConfigError(
            'input-qubit: expected two "re,im" pairs separated by ";", '
            f"got {text!r}"
        )
    amps = []
    for part in parts:
        comps = part.split(",")
        if len(comps) != 2:
            raise ConfigError(f'input-qubit: each amplitude needs "re,im", got {part!r}')
        try:
            amps.append(complex(float(comps[0]), float(comps[1])))
        except ValueError as exc:
            raise ConfigError(f"input-qubit: non-numeric component in {part!r}") from exc
    try:
        return PureQubit(amps[0], amps[1])
    except ValueError as exc:
        raise ConfigError(f"input-qubit: {exc}") from exc


def _parse_methods(text: str) -> list[str]:
    methods = []
    for tok in str(text).split(","):
        tok = tok.strip()
        if not tok:
            continue
        if tok not in _METHOD_ALIASES:
            raise ConfigError(
                f"methods: unknown method {tok!r}; choose from "
                f"{sorted(set(_METHOD_ALIASES))}"
            )
        methods.append(_METHOD_ALIASES[tok])
    if not methods:
        raise ConfigError("methods: at least one method required")
    return methods


def _qubit_cap() -> int:
    raw = os.environ.get("SEQCLONE_MAX_QUBITS")
    if raw is None:
        return DEFAULT_MAX_QUBITS
    try:
        cap = int(raw)
    except ValueError:
        print(
            f"warning: ignoring non-integer SEQCLONE_MAX_QUBITS={raw!r}",
            file=sys.stderr,
        )
        return DEFAULT_MAX_QUBITS
    if cap > DEFAULT_MAX_QUBITS:
        print(
            f"warning: SEQCLONE_MAX_QUBITS={cap} raises the dense cap above "
            f"{DEFAULT_MAX_QUBITS}; this is unsupported territory",
            file=sys.stderr,
        )
    return cap


def _check_register(n: int) -> None:
    cap = _qubit_cap()
    if n > cap:
        raise ResourceLimitError(
            f"register of {n} qubits exceeds the dense cap ({cap}); "
            "set SEQCLONE_MAX_QUBITS to override"
        )


# --- scan-point workers (module level so a process pool can pickle them) ----


def _regularize_point(task):
    clones, cap, method, qubit_re_im, max_sweeps, tol, seed = task
    spec = GMSpec(clones, PureQubit(*qubit_re_im))
    target = gm_mps(spec)
    start = time.perf_counter()
    _, report = compression.compress(
        target, cap, method, max_sweeps=max_sweeps, convergence_tol=tol, seed=seed
    )
    wall = time.perf_counter() - start
    return {
        "experiment": "regularize",
        "n": spec.qubits,
        "M": clones,
        "bond_cap": cap,
        "aux": None,
        "method": report.method,
        "fidelity": report.fidelity,
        "error": report.error,
        "sweeps": report.sweeps_used,
        "restarts": None,
        "wall_seconds": wall,
        "seed": seed,
    }


def _synthesize_point(task):
    n, aux, restarts, model, qubit_re_im, max_sweeps, seed = task
    clones = (n + 1) // 2
    spec = GMSpec(clones, PureQubit(*qubit_re_im))
    target = gm_state(spec)
    start = time.perf_counter()
    result = sequential.optimize_schedule(
        target, n, aux=aux, restarts=restarts, seed=seed,
        coupling_model=model, max_sweeps=max_sweeps,
    )
    wall = time.perf_counter() - start
    return {
        "experiment": "synthesize",
        "n": n,
        "M": clones,
        "bond_cap": None,
        "aux": "on" if aux else "off",
        "method": model,
        "fidelity": result.fidelity,
        "error": 1.0 - result.fidelity,
        "sweeps": result.iterations,
        "restarts": result.restarts_used,
        "wall_seconds": wall,
        "seed": seed,
    }


def _run_pool(worker, tasks, threads):
    if threads <= 1 or len(tasks) <= 1:
        return [worker(t) for t in tasks]
    with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, tasks))


# --- output ------------------------------------------------------------------


def _render_rows(rows, columns, fmt, experiment, timing):
    if not timing:
        rows = [{**row, "wall_seconds": None} for row in rows]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])
        return buf.getvalue()
    doc = {
        "schema": RESULT_SCHEMA,
        "experiment": experiment,
        "rows": [
            {c: (row[c] if not isinstance(row[c], float) else float(_fmt(row[c])))
             for c in columns}
            for row in rows
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _write_output(text, path):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# --- experiments -------------------------------------------------------------


def _cmd_regularize(args) -> int:
    clones_list = _parse_int_list(args.clones, "clones")
    caps = _parse_int_list(args.bond_caps, "bond-caps")
    methods = _parse_methods(args.methods)
    qubit = _parse_input_qubit(args.input_qubit)
    for m in clones_list:
        if m < 1:
            raise ConfigError(f"clones: must be >= 1, got {m}")
        _check_register(2 * m - 1)
    for cap in caps:
        if cap < 1:
            raise ConfigError(f"bond-caps: must be >= 1, got {cap}")
    if args.max_sweeps < 1:
        raise ConfigError(f"max-sweeps: must be >= 1, got {args.max_sweeps}")
    if not args.tol > 0:
        raise ConfigError(f"tol: must be positive, got {args.tol!r}")
    qubit_re_im = (qubit.alpha, qubit.beta)
    tasks = [
        (m, cap, method, qubit_re_im, args.max_sweeps, args.tol, args.seed)
        for m in clones_list
        for cap in caps
        for method in methods
    ]
    rows = _run_pool(_regularize_point, tasks, args.threads)
    text = _render_rows(rows, RESULT_COLUMNS, args.format, "regularize", args.timing)
    _write_output(text, args.output)
    return EXIT_OK


def _cmd_synthesize(args) -> int:
    qubit_list = _parse_int_list(args.qubits, "qubits")
    if args.aux not in ("on", "off"):
        raise ConfigError(f"aux: expected on/off, got {args.aux!r}")
    if args.coupling_model not in (sequential.COUPLING_XXZ, sequential.COUPLING_GENERAL):
        raise ConfigError(f"coupling-model: unknown model {args.coupling_model!r}")
    if args.restarts < 1:
        raise ConfigError(f"restarts: must be >= 1, got {args.restarts}")
    if args.max_sweeps < 1:
        raise ConfigError(f"max-sweeps: must be >= 1, got {args.max_sweeps}")
    qubit = _parse_input_qubit(args.input_qubit)
    for n in qubit_list:
        if n < 1 or n % 2 == 0:
            raise ConfigError(f"qubits: register must be a positive odd count, got {n}")
        _check_register(n)
    tasks = [
        (
            n, args.aux == "on", args.restarts, args.coupling_model,
            (qubit.alpha, qubit.beta), args.max_sweeps, args.seed,
        )
        for n in qubit_list
    ]
    rows = _run_pool(_synthesize_point, tasks, args.threads)
    text = _render_rows(rows, RESULT_COLUMNS, args.format, "synthesize", args.timing)
    _write_output(text, args.output)
    return EXIT_OK


def _cmd_gm_info(args) -> int:
    clones_list = _parse_int_list(args.clones, "clones")
    if args.mps_out and len(clones_list) > 1:
        raise ConfigError("mps-out: holds one chain, so it needs exactly one clone count")
    qubit = _parse_input_qubit(args.input_qubit)
    rows = []
    for m in clones_list:
        if not 1 <= m <= 8:
            raise ConfigError(f"clones: gm-info supports 1..8 clones, got {m}")
        spec = GMSpec(m, qubit)
        chain = gm_mps(spec)
        if args.mps_out:
            _write_output(mps_mod.to_json(chain) + "\n", args.mps_out)

        def add(record, index, value, n=spec.qubits, m=m):
            rows.append({
                "experiment": "gm-info", "n": n, "M": m,
                "record": record, "index": index, "value": value,
            })

        for j, a in enumerate(gm_coefficients(m)):
            add("alpha", j, float(a))
        for c, d in enumerate(chain.bond_dimensions):
            add("bond_dim", c, d)
        add("max_bond", None, chain.max_bond)
        for idx in range(1, m + 1):
            add("clone_fidelity", idx, clone_fidelity_oracle(spec, idx))
    text = _render_rows(rows, INFO_COLUMNS, args.format, "gm-info", timing=True)
    _write_output(text, args.output)
    return EXIT_OK


# --- argument plumbing -------------------------------------------------------


def _load_config_defaults(path: str) -> dict:
    defaults = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, value = line.split("=", 1)
                defaults[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    return defaults


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", "-o", default="-", help="output path ('-' = stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument(
        "--threads", type=int, default=os.cpu_count() or 1,
        help="worker processes for scan points",
    )
    parser.add_argument(
        "--timing", action="store_true",
        help="record wall-clock seconds (breaks byte-identical reruns)",
    )
    parser.add_argument(
        "--input-qubit",
        default="0.70710678118654746,0;0.70710678118654746,0",
        help='input amplitudes as "re,im;re,im"',
    )


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="seqclone",
        description="cloner-state construction, bond compression, and "
                    "restricted sequential synthesis",
    )
    parser.add_argument("--config", help="flat key=value file with defaults")
    sub = parser.add_subparsers(dest="experiment", required=True)
    subparsers = {}

    p = subparsers["regularize"] = sub.add_parser(
        "regularize", help="bond-cap compression scan"
    )
    _add_common(p)
    p.add_argument("--clones", help="clone counts, comma separated")
    p.add_argument("--bond-caps", help="bond caps, comma separated")
    p.add_argument("--methods", default="svd,variational")
    p.add_argument("--max-sweeps", type=int, default=50)
    p.add_argument("--tol", type=float, default=1e-12)

    p = subparsers["synthesize"] = sub.add_parser(
        "synthesize", help="restricted-interaction synthesis"
    )
    _add_common(p)
    p.add_argument("--qubits", help="register sizes (odd), comma separated")
    p.add_argument("--aux", choices=("on", "off"), default="on")
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument(
        "--coupling-model",
        choices=(sequential.COUPLING_XXZ, sequential.COUPLING_GENERAL),
        default=sequential.COUPLING_XXZ,
    )
    p.add_argument("--max-sweeps", type=int, default=200)

    p = subparsers["gm-info"] = sub.add_parser(
        "gm-info", help="structural facts of a cloner state"
    )
    _add_common(p)
    p.add_argument("--clones", help="clone counts (1..8), comma separated")
    p.add_argument("--mps-out", help="also dump the exact MPS as JSON to this path")
    return parser, subparsers


def _peek_config_path(argv: list[str]) -> str | None:
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            return argv[i + 1]
        if tok.startswith("--config="):
            return tok.split("=", 1)[1]
    return None


def _apply_config_defaults(subparsers, defaults) -> None:
    """Config values become subparser defaults; flags still override them."""
    known = set()
    for sub in subparsers.values():
        apply = {}
        for action in sub._actions:
            known.add(action.dest)
            if action.dest not in defaults:
                continue
            raw = defaults[action.dest]
            if isinstance(action, argparse._StoreTrueAction):
                apply[action.dest] = raw.lower() in ("1", "true", "on", "yes")
                continue
            conv = action.type or str
            try:
                apply[action.dest] = conv(raw)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"config: bad value for {action.dest}: {raw!r}") from exc
        sub.set_defaults(**apply)
    for key in defaults:
        if key not in known:
            print(f"warning: config: ignoring unknown key {key!r}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, subparsers = build_parser()
    config_path = _peek_config_path(argv)
    if config_path:
        try:
            _apply_config_defaults(subparsers, _load_config_defaults(config_path))
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    args = parser.parse_args(argv)
    handlers = {
        "regularize": _cmd_regularize,
        "synthesize": _cmd_synthesize,
        "gm-info": _cmd_gm_info,
    }
    try:
        return handlers[args.experiment](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
