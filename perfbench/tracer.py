"""Per-layer tracing of gsteady by wrapping its functions where they are looked up.

Each traced function is replaced, in every loaded gsteady module that binds
it, by a wrapper that records its calls, self time and optional
work counts.  The bindings swapped are module attributes (so both
``dsmc.step`` and a name imported with ``from .restitution import eval_e``
are covered) and the tuples held in module-level dicts, which is how
``verify.run_suite`` finds its checks.  Self time is a call's duration minus
the duration of the traced calls made inside it; the wrappers' own cost
lands in the caller's self time and is reported as a whole by the
benchmark as the traced-minus-untraced wall time.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)

    def add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def clear(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.counts.clear()


def _count_collisions(st, args, kwargs, out):
    # apply_collisions(vel, idx_i, ...) -> (accepted, loss, violated)
    st.add("candidates", len(args[1]))
    st.add("accepted", int(out[0]))


def _count_pairs(st, args, kwargs, out):
    # dissipation_functional(velocities, zeta, n_pairs=None, rng=None,
    # exact_threshold=2000): all pairs for small ensembles, else n_pairs
    # (default 10^6) sampled pairs.
    n = len(args[0])
    n_pairs = kwargs.get("n_pairs", args[2] if len(args) > 2 else None)
    threshold = kwargs.get("exact_threshold", args[4] if len(args) > 4 else 2000)
    if n_pairs is None:
        n_pairs = n * (n - 1) // 2 if n <= threshold else 1_000_000
    st.add("pairs", int(n_pairs))


def _count_elements(st, args, kwargs, out):
    # eval_e_vec(kind, e0, a, gamma, lam, r)
    st.add("elements", int(np.size(args[5] if len(args) > 5 else kwargs["r"])))


def _count_battery_pairs(st, args, kwargs, out):
    # battery(p, model, n_pairs, rng, ...)
    st.add("pairs", int(args[2] if len(args) > 2 else kwargs["n_pairs"]))


def _count_file_bytes(st, args, kwargs, out):
    # write_csv(path, ...) and save_snapshot(path, ...)
    st.add("bytes", os.path.getsize(args[0]))


# Metric prefix -> (module, function, work counter).  The prefix is the
# function's module and name, with the leading underscore of the private
# kernel module dropped because metric names start with a letter.
LAYERS = {
    "config.build_setup": ("gsteady.config", "build_setup", None),
    "dissipation.steady_temperature_ansatz":
        ("gsteady.dissipation", "steady_temperature_ansatz", None),
    "dsmc.initial_ensemble": ("gsteady.dsmc", "initial_ensemble", None),
    "dsmc.run_to_steady": ("gsteady.dsmc", "run_to_steady", None),
    "dsmc.step": ("gsteady.dsmc", "step", None),
    "kernels.apply_collisions":
        ("gsteady._kernels", "apply_collisions", _count_collisions),
    "dissipation.dissipation_functional":
        ("gsteady.dissipation", "dissipation_functional", _count_pairs),
    "dissipation.psi_e": ("gsteady.dissipation", "psi_e", None),
    "kernels.eval_e_vec": ("gsteady._kernels", "eval_e_vec", _count_elements),
    "restitution.eval_e": ("gsteady.restitution", "eval_e", None),
    "maps.alpha_e": ("gsteady.maps", "alpha_e", None),
    "kinematics.post_collision_grid":
        ("gsteady.kinematics", "post_collision_grid", None),
    "kinematics.angular_average": ("gsteady.kinematics", "angular_average", None),
    "povzner.battery": ("gsteady.povzner", "battery", _count_battery_pairs),
    "povzner.gain_term": ("gsteady.povzner", "gain_term", None),
    "verify.check_restitution": ("gsteady.verify", "check_restitution", None),
    "verify.check_kinematics": ("gsteady.verify", "check_kinematics", None),
    "verify.check_dissipation_bridge":
        ("gsteady.verify", "check_dissipation_bridge", None),
    "verify.check_maps": ("gsteady.verify", "check_maps", None),
    "verify.check_dissipation": ("gsteady.verify", "check_dissipation", None),
    "verify.check_povzner": ("gsteady.verify", "check_povzner", None),
    "scaling.scaling_equivalence_test":
        ("gsteady.scaling", "scaling_equivalence_test", None),
    "observables.maxwellian_distance":
        ("gsteady.observables", "maxwellian_distance", None),
    "observables.tail_integral": ("gsteady.observables", "tail_integral", None),
    "cli.write_csv": ("gsteady.cli", "write_csv", _count_file_bytes),
    "dsmc.save_snapshot": ("gsteady.dsmc", "save_snapshot", _count_file_bytes),
}


class Tracer:
    """Swaps traced wrappers in while installed; stats accumulate until reset."""

    def __init__(self):
        self.stats = {name: LayerStats() for name in LAYERS}
        self._stack: list[float] = []
        self._undo: list[tuple] = []

    def reset(self) -> None:
        for st in self.stats.values():
            st.clear()

    def metrics(self) -> dict:
        """Flat `<layer>.<quantity>` values: ms is self time."""
        out = {}
        for name, st in self.stats.items():
            out[f"{name}.ms"] = 1e3 * st.self_s
            out[f"{name}.calls"] = st.calls
            for key, value in st.counts.items():
                out[f"{name}.{key}"] = value
            if st.counts.get("candidates"):
                out[f"{name}.accept_ratio"] = (st.counts["accepted"]
                                               / st.counts["candidates"])
        return out

    def _wrap(self, name, fn, counter):
        stack = self._stack
        st = self.stats[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += dur
                st.calls += 1
                st.self_s += dur - inner
            if counter is not None:
                counter(st, args, kwargs, out)
            return out

        return traced

    def _swap(self, namespace: dict, original, wrapped) -> None:
        for key, value in list(namespace.items()):
            if key.startswith("__"):
                continue
            if value is original:
                self._undo.append((namespace, key, value))
                namespace[key] = wrapped
            elif isinstance(value, dict):
                for dkey, dval in list(value.items()):
                    if isinstance(dval, tuple) and any(v is original for v in dval):
                        self._undo.append((value, dkey, dval))
                        value[dkey] = tuple(wrapped if v is original else v
                                            for v in dval)

    @contextlib.contextmanager
    def installed(self):
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == "gsteady" or name.startswith("gsteady.")]
        try:
            for name, (modname, attr, counter) in LAYERS.items():
                original = getattr(sys.modules.get(modname), attr, None)
                if original is None:  # the layer is gone from this version
                    continue
                wrapped = self._wrap(name, original, counter)
                for mod in modules:
                    self._swap(vars(mod), original, wrapped)
            yield self
        finally:
            while self._undo:
                namespace, key, value = self._undo.pop()
                namespace[key] = value
