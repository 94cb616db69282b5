"""Spans around calls into leolab's public functions, and the per-layer
numbers derived from them.

Tracer.install wraps each traced function in every leolab module namespace
that holds it (so `from .opalg import hermitian_exponential` in dynamics is
wrapped too) and uninstall puts the originals back, so untraced passes run
the library untouched. A span records its name, start, end, parent span and
the operation it belongs to; spans stay in memory until the pass ends.

Self time is a span's duration minus the part of it covered by its child
spans. Calls made from the sweep's pool threads get the innermost open span
of the main thread as parent, so a sweep's simulate calls are its children.

This module imports nothing from leolab or numpy, so the driver can
aggregate spans written by traced CLI processes.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict

# (module, function, span name, attribute extractor)
TARGETS = (
    ("leolab.opalg", "hermitian_exponential", "opalg.expm",
     lambda a, k: {"dim": a[0].dim}),
    ("leolab.codes", "build_code", "codes.build", None),
    ("leolab.codes", "bare_qubit_code", "codes.build", None),
    ("leolab.codes", "dfs2_dephasing", "codes.build", None),
    ("leolab.codes", "dfs3_collective", "codes.build", None),
    ("leolab.codes", "dfs4_collective", "codes.build", None),
    ("leolab.codes", "dual_rail_code", "codes.build", None),
    ("leolab.codes", "spin_sector_decomposition", "codes.spin_sectors", None),
    ("leolab.classify", "decompose", "classify.decompose", None),
    ("leolab.classify", "classify_pauli_strings", "classify.pauli_table", None),
    ("leolab.leo", "projector_leo", "leo.synth", None),
    ("leolab.leo", "canonical_leo", "leo.synth", None),
    ("leolab.leo", "exchange_dfs2_leo", "leo.synth", None),
    ("leolab.leo", "generalized_leo", "leo.synth", None),
    ("leolab.leo", "number_operator_leo", "leo.synth", None),
    ("leolab.leo", "phase_shifter_leo", "leo.synth", None),
    ("leolab.leo", "s_squared_leo", "leo.synth", None),
    ("leolab.leo", "verify_leo", "leo.verify",
     lambda a, k: {"probes": len(a[2] if len(a) > 2 else k.get("probes", ()))}),
    ("leolab.models", "dfs2_leakage_model", "models.build", None),
    ("leolab.models", "hopping_model", "models.build", None),
    ("leolab.models", "linear_optics_model", "models.build", None),
    ("leolab.models", "model_from_config", "models.build", None),
    ("leolab.dynamics", "simulate", "dynamics.simulate",
     lambda a, k: {"dim": a[0].joint_dim, "cycles": a[1].n_cycles}),
    ("leolab.dynamics", "sweep_cycles", "dynamics.sweep", None),
    ("leolab.dynamics", "decoupled_limit_unitary", "dynamics.limit", None),
    ("leolab.cli", "main", "cli.main",
     lambda a, k: {"command": next(iter(a[0] if a and a[0] is not None
                                        else sys.argv[1:]), "")}),
)

CLI_COMMANDS = ("decompose", "synth", "verify", "simulate", "sweep")
JOINT_DIMS = (16, 64, 256, 512)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.op: str | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, fn, name, attrs):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else (
                tracer._main_stack[-1] if tracer._main_stack else None)
            span = {"id": next(tracer._ids), "parent": parent, "name": name,
                    "op": tracer.op, "attrs": attrs(args, kwargs) if attrs else {},
                    "t0": time.perf_counter()}
            stack.append(span["id"])
            try:
                return fn(*args, **kwargs)
            finally:
                span["t1"] = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
        return traced

    def install(self) -> None:
        """Wrap every target in every loaded leolab module that binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "leolab" or n.startswith("leolab.")]
        for mod_name, fn_name, span_name, attrs in TARGETS:
            if mod_name not in sys.modules:
                continue
            orig = getattr(sys.modules[mod_name], fn_name)
            wrapper = self._wrap(orig, span_name, attrs)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, orig))

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._patched):
            setattr(mod, key, orig)
        self._patched.clear()

    def take(self) -> list[dict]:
        spans, self.spans = self.spans, []
        return spans


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        kids = [(max(c["t0"], s["t0"]), min(c["t1"], s["t1"]))
                for c in children[s["id"]]]
        out[s["id"]] = (s["t1"] - s["t0"]) - _covered([k for k in kids if k[1] > k[0]])
    return out


def _outermost(spans: list[dict]) -> list[dict]:
    """Spans with no ancestor of the same name (nested builders count once)."""
    by_id = {s["id"]: s for s in spans}
    out = []
    for s in spans:
        p = by_id.get(s["parent"])
        while p is not None and p["name"] != s["name"]:
            p = by_id.get(p["parent"])
        if p is None:
            out.append(s)
    return out


def per_layer(spans: list[dict]) -> dict[str, float]:
    """Per-layer totals over one unit of work (a set-up plus one pass).

    Every *_s metric sums the self time of all spans of its name, so no
    time counts in two layers; counts take the outermost spans only.
    """
    own = self_times(spans)
    named = defaultdict(list)
    for s in spans:
        named[s["name"]].append(s)
    top = defaultdict(list)
    for s in _outermost(spans):
        top[s["name"]].append(s)

    def self_s(name):
        return sum(own[s["id"]] for s in named[name])

    sims = named["dynamics.simulate"]
    out = {
        "models.build_s": self_s("models.build"),
        "models.build_calls": len(top["models.build"]),
        "opalg.expm_calls": len(top["opalg.expm"]),
        "opalg.expm_s": self_s("opalg.expm"),
        "opalg.expm_dim_max": max((s["attrs"]["dim"] for s in named["opalg.expm"]),
                                  default=0),
        "dynamics.simulate_self_s": self_s("dynamics.simulate"),
        "dynamics.limit_s": self_s("dynamics.limit"),
    }
    for dim in JOINT_DIMS:
        at = [s for s in sims if s["attrs"]["dim"] == dim]
        cycles = sum(s["attrs"]["cycles"] for s in at)
        out[f"dynamics.us_per_cycle.j{dim}"] = (
            1e6 * sum(own[s["id"]] for s in at) / cycles if cycles else 0.0)
    # the overlap compares whole spans: child simulate time over sweep time
    sweeps = named["dynamics.sweep"]
    sweep_ids = {s["id"] for s in sweeps}
    in_sweeps = sum(s["t1"] - s["t0"] for s in sims if s["parent"] in sweep_ids)
    sweep_wall = sum(s["t1"] - s["t0"] for s in sweeps)
    out["dynamics.sweep_s"] = self_s("dynamics.sweep")
    out["dynamics.sweep_overlap"] = in_sweeps / sweep_wall if sweeps else 0.0
    out.update({
        "leo.synth_s": self_s("leo.synth"),
        "leo.synth_calls": len(top["leo.synth"]),
        "leo.verify_s": self_s("leo.verify"),
        "leo.probes_verified": sum(s["attrs"]["probes"] for s in top["leo.verify"]),
        "classify.decompose_calls": len(top["classify.decompose"]),
        "classify.decompose_s": self_s("classify.decompose"),
        "classify.pauli_table_s": self_s("classify.pauli_table"),
        "codes.build_s": self_s("codes.build"),
        "codes.spin_sectors_s": self_s("codes.spin_sectors"),
    })
    for command in CLI_COMMANDS:
        out[f"cli.main_s.{command}"] = sum(
            own[s["id"]] for s in named["cli.main"]
            if s["attrs"]["command"] == command)
    return out
