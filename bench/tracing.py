"""Spans and counters around the calls into each ``seqclone`` layer.

The package is not changed: :class:`Tracer` replaces each traced function
by a wrapper in every ``seqclone`` module that holds a reference to it, so
a function imported by name (``gm_state`` into ``compression`` and ``cli``,
``minimize`` into ``sequential``) is caught where the caller looks it up.
A name the package no longer has is skipped, and its metrics read 0.

Each span has a name, a start, an end and a parent.  Spans stay in memory
until :meth:`Tracer.dump`.  A span's self time is its duration minus the
durations of its children; calls are never concurrent here, so children do
not overlap.  The very hot gate builders get a plain counter, no span.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name); the span name is the metric prefix
SPANNED = [
    ("seqclone.cloning", "gm_state", "cloning.gm_state"),
    ("seqclone.cloning", "clone_fidelity_oracle", "cloning.clone_fidelity_oracle"),
    ("seqclone.mps", "from_statevector", "mps.from_statevector"),
    ("seqclone.mps", "overlap", "mps.overlap"),
    ("seqclone.mps", "to_json", "mps.to_json"),
    ("seqclone.linalg", "svd", "linalg.svd"),
    ("seqclone.compression", "svd_truncate_mps", "compression.svd_truncate_mps"),
    ("seqclone.compression", "variational_compress", "compression.variational_compress"),
    ("seqclone.sequential", "optimize_schedule", "sequential.optimize_schedule"),
    ("seqclone.sequential", "minimize", "sequential.minimize"),
]
COUNTED = [
    ("seqclone.sequential", "xxz_unitary", "sequential.xxz_unitary"),
    ("seqclone.sequential", "euler_zyz", "sequential.euler_zyz"),
]


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.specs: set = set()
        self._first = 0  # first span not yet in a snapshot
        self.synthesis: list[tuple[int, int, int]] = []  # (n, block size, solves before)
        self._patched: list[tuple[object, str, object]] = []

    # --- spans -----------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock() - self.origin, None, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = self.clock() - self.origin
        self.stack.pop()

    # --- patching --------------------------------------------------------

    def install(self) -> None:
        for module, attr, name in SPANNED:
            self._replace(module, attr, lambda fn, name=name: self._spanned(fn, name))
        for module, attr, name in COUNTED:
            self._replace(module, attr, lambda fn, name=name: self._counted(fn, name))

    def remove(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def _replace(self, module_name, attr, make_wrapper):
        home = sys.modules.get(module_name)
        original = getattr(home, attr, None)
        if original is None:
            return
        wrapper = make_wrapper(original)
        for name, module in list(sys.modules.items()):
            if name != "seqclone" and not name.startswith("seqclone."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._patched.append((module, key, original))

    def _counted(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanned(self, fn, name):
        short = name.split(".")[-1]
        enter = getattr(self, "_enter_" + short, None)
        leave = getattr(self, "_leave_" + short, None)
        after = getattr(self, "_after_" + short, None)

        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            index = self.begin(name)
            if enter:
                enter(args, kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                if leave:
                    leave()
                self.end(index)
            if after:
                after(index, result, args, kwargs)
            return result

        return wrapper

    # --- per-layer bookkeeping ------------------------------------------

    def _after_gm_state(self, index, result, args, kwargs):
        self.specs.add(args[0] if args else kwargs["spec"])

    def _after_variational_compress(self, index, result, args, kwargs):
        report = result[1]
        self.counts["compression.als_sweeps"] += report.sweeps_used
        self.counts["compression.als_unconverged"] += not report.converged

    def _after_to_json(self, index, result, args, kwargs):
        self.counts["mps.to_json.bytes"] += len(result.encode())

    def _enter_optimize_schedule(self, args, kwargs):
        # optimize_schedule(target, n, aux, ..., coupling_model=...)
        n = args[1] if len(args) > 1 else kwargs["n"]
        aux = args[2] if len(args) > 2 else kwargs["aux"]
        model = kwargs.get("coupling_model", args[5] if len(args) > 5 else "xxz")
        block = (2 if model == "xxz" else 16) + (6 if aux else 0)
        self.synthesis.append((n, block, self.counts["sequential.block_solve.calls"]))

    def _leave_optimize_schedule(self):
        # a sweep solves every block twice, forth and back
        n, _, before = self.synthesis.pop()
        solves = self.counts["sequential.block_solve.calls"] - before
        self.counts["sequential.sweeps"] += solves // (2 * n)

    def _after_minimize(self, index, result, args, kwargs):
        # block solves optimize one step's parameters, the polish all of them
        x0 = args[1] if len(args) > 1 else kwargs["x0"]
        n, block, _ = self.synthesis[-1] if self.synthesis else (0, 0, 0)
        kind = "polish" if n > 1 and len(x0) == n * block else "block_solve"
        self.spans[index][0] = "sequential." + kind
        self.counts[f"sequential.{kind}.calls"] += 1
        self.counts[f"sequential.{kind}.evals"] += int(result.nfev)

    # --- reading out -----------------------------------------------------

    def snapshot(self) -> dict:
        """Totals since the last snapshot: self times, durations, counts."""
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        first = self._first
        for i in range(first, len(self.spans)):
            name, start, end, parent = self.spans[i]
            total_s[name] += end - start
            self_s[name] += end - start
            if parent >= first:
                self_s[self.spans[parent][0]] -= end - start
        counts = dict(self.counts)
        counts["cloning.gm_state.distinct"] = len(self.specs)
        self._first = len(self.spans)
        self.counts.clear()  # cleared in place: wrappers hold a reference
        self.specs.clear()
        return {"self_s": dict(self_s), "total_s": dict(total_s), "counts": counts}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["name", "start_s", "end_s", "parent"], "spans": self.spans},
                fh,
                separators=(",", ":"),
            )
