"""Span tracing of povmsim from outside the package.

A Tracer replaces chosen public functions of the povmsim modules with
wrappers that record one span per call (name, start, end, parent span, op
id), and restores the originals on uninstall.  A name is replaced in every
povmsim module that holds it, so a call from inside the library (say
``protocol`` calling the ``trace_norm`` it imported from ``linalg``) is
counted as well.  Spans are kept in compact in-memory arrays and written out
once, at the end of a run.

A few wrapped boundaries also feed computed counters from their arguments
and return values; those counters are labelled as computed in the metrics.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from array import array

import numpy as np

# Layer -> public functions wrapped in that layer.  The op span is cli.main.
WRAPPED = {
    "linalg": ("trace_norm", "pruning_projector", "max_eigenvalue", "psd_sqrt",
               "kron_power"),
    "cq": ("cq_mutual_information", "build_sigma3"),
    "codes": ("sample_ensemble", "pairwise_independence_check"),
    "regions": ("surface_scan", "compute_distributed_quantities",
                "fourier_motzkin_eliminate", "check_separable_decomposition"),
    "protocol": ("build_instance", "build_distributed_instance", "cut_post_state",
                 "cond_typical_projector", "typical_projector", "assemble_overall",
                 "assemble_overall_distributed", "target_overall",
                 "target_overall_distributed", "faithfulness"),
    "lab": ("covering_experiment", "pruning_inequality_experiment", "ucc_code_sampler"),
    "cli": ("main", "load_problem"),
}

# Every span name a Tracer records; codes.ucc_sample wraps the sampler that
# lab.ucc_code_sampler returns.
SPAN_NAMES = frozenset([f"{layer}.{f}" for layer, funcs in WRAPPED.items() for f in funcs]
                       + ["codes.ucc_sample", "trace.counters"])

# A cut post-state (and so its Abar) counts as zero when no entry exceeds this.
ZERO_ATOL = 1e-12
# Entries below this magnitude (and nonzero) are the rounding residue that
# drives LAPACK into subnormal arithmetic.
TINY = 1e-100


def _dense_bytes(obj, seen: set) -> int:
    """Bytes of the distinct numpy arrays reachable from a returned instance."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes if obj.dtype != object else 0
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(_dense_bytes(getattr(obj, f.name), seen) for f in dataclasses.fields(obj))
    if isinstance(obj, dict):
        return sum(_dense_bytes(v, seen) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_dense_bytes(v, seen) for v in obj)
    return 0


@dataclasses.dataclass
class Counters:
    """Computed counts gathered at the wrapped boundaries during traced passes."""

    trace_norm_flop: float = 0.0      # sum of d**3 over trace_norm inputs
    trace_norm_entries: int = 0
    trace_norm_tiny: int = 0          # nonzero entries below TINY
    abar_built: int = 0
    abar_used: int = 0
    cut_states: int = 0
    cut_states_zero: int = 0
    dense_bytes_max: int = 0
    surface_points: int = 0
    lab_experiments: int = 0
    lab_passed: int = 0


class Tracer:
    """Install wrappers around the povmsim public functions and record spans."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.counters = Counters()
        self.current_op = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "povmsim" or k.startswith("povmsim."))]
        for layer, funcs in WRAPPED.items():
            home = sys.modules[f"povmsim.{layer}"]
            for fname in funcs:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original, self._hook(layer, fname))
                for mod in mods:
                    if getattr(mod, fname, None) is original:
                        self._saved.append((mod, fname, original))
                        setattr(mod, fname, wrapper)

    def uninstall(self) -> None:
        for mod, fname, original in reversed(self._saved):
            setattr(mod, fname, original)
        self._saved.clear()

    def _span_name(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, hook):
        nid = self._span_name(name)
        # Counter work gets a span of its own beside the wrapped call, so it
        # is charged to tracing and not to the caller's self time.
        hook_nid = self._span_name("trace.counters")

        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                idx = self._open(hook_nid)
                try:
                    result = hook(args, kwargs, result)
                finally:
                    self._close(idx)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- computed counters ------------------------------------------------

    def _hook(self, layer: str, fname: str):
        c = self.counters
        if (layer, fname) == ("linalg", "trace_norm"):
            def hook(args, kwargs, result):
                a = np.asarray(args[0] if args else kwargs["a"])
                mag = np.abs(a)
                c.trace_norm_flop += float(a.shape[0]) ** 3
                c.trace_norm_entries += a.size
                c.trace_norm_tiny += int(np.count_nonzero((mag > 0) & (mag < TINY)))
                return result
            return hook
        if (layer, fname) == ("protocol", "cut_post_state"):
            def hook(args, kwargs, result):
                c.cut_states += 1
                c.cut_states_zero += int(not np.any(np.abs(result) > ZERO_ATOL))
                return result
            return hook
        if (layer, fname) == ("protocol", "build_instance"):
            def hook(args, kwargs, result):
                used = set().union(*(mu.gamma for mu in result.mus))
                c.abar_built += len(result.abar)
                c.abar_used += sum(1 for w in result.abar if w in used)
                c.dense_bytes_max = max(c.dense_bytes_max, _dense_bytes(result, set()))
                return result
            return hook
        if (layer, fname) == ("protocol", "build_distributed_instance"):
            def hook(args, kwargs, result):
                # The distributed instance keeps no Abar table; every side's
                # a_ops holds one pruned operator per Abar built on that side.
                for sides in (result.side_a, result.side_b):
                    words = sides[0].a_ops
                    used = set().union(*(s.gamma for s in sides))
                    c.abar_built += len(words)
                    c.abar_used += sum(1 for w in words if w in used)
                c.dense_bytes_max = max(c.dense_bytes_max, _dense_bytes(result, set()))
                return result
            return hook
        if (layer, fname) == ("regions", "surface_scan"):
            def hook(args, kwargs, result):
                c.surface_points += len(result)
                return result
            return hook
        if (layer, fname) == ("lab", "covering_experiment"):
            def hook(args, kwargs, result):
                c.lab_experiments += 1
                c.lab_passed += int(result.passed)
                return result
            return hook
        if (layer, fname) == ("lab", "pruning_inequality_experiment"):
            def hook(args, kwargs, result):
                c.lab_experiments += 1
                c.lab_passed += int(result.pathwise_violations == 0
                                    and result.markov_violations == 0
                                    and result.aggregate_ok and result.precondition_ok)
                return result
            return hook
        if (layer, fname) == ("lab", "ucc_code_sampler"):
            # The per-trial UCC draws happen in the sampler this returns.
            def hook(args, kwargs, result):
                return self._wrap("codes.ucc_sample", result, None)
            return hook
        return None

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
        }

    def write(self, path) -> None:
        np.savez_compressed(path, **self.arrays())

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_s = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            sel = a["name_id"] == nid
            out[name] = {"calls": int(sel.sum()), "s": float(dur[sel].sum()),
                         "self_s": float(self_s[sel].sum())}
        out["_total_self_s"] = float(self_s.sum())
        out["_root_s"] = float(dur[~has_parent].sum())
        return out
