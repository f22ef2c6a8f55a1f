"""Span tracing for the benchmark's traced run, installed from outside the package.

The tracer wraps every public function of the six telegate modules, the
public methods of ``Network`` and ``ProtocolSpec``, and ``StateVector``
construction.  Modules bind each other's names with ``from .x import y``, so
a wrapper replaces the function under every name that refers to it in every
loaded ``telegate`` module, not only where it is defined.

Spans (name, start, end, parent) are appended to flat arrays while the
program runs and aggregated afterwards; nothing is written until the run
ends.  ``install`` records every patch so that ``uninstall`` can restore the
original functions.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

MODULES = ("statevector", "gates", "network", "protocols", "verify", "cli")

# Statevector operations that sweep the whole amplitude array once each.
KERNELS = (
    "apply_gate",
    "project_measure",
    "discard_qubit",
    "tensor",
    "permute_qubits",
    "fidelity_up_to_phase",
)

AMPLITUDE_BYTES = 16  # complex128


def _register_qubits(name: str, args: tuple) -> int:
    """Qubits of the amplitude array a kernel call computes over."""
    if name == "tensor":
        return args[0].num_qubits + args[1].num_qubits
    return args[0].num_qubits


class Tracer:
    """In-memory span recorder plus the counts taken at layer boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.kernel_calls = 0
        self.bytes_computed = 0
        self.peak_register_qubits = 0
        self.branches_enumerated = 0
        self.impossible_branches = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_call=None, on_result=None):
        nid = self._name_id(name)
        span_name, span_parent = self.span_name, self.span_parent
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            span_parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            if on_call is not None:
                on_call(args)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_kernel(self, name: str):
        def on_call(args: tuple) -> None:
            q = _register_qubits(name, args)
            self.kernel_calls += 1
            self.bytes_computed += AMPLITUDE_BYTES << q
            if q > self.peak_register_qubits:
                self.peak_register_qubits = q

        return on_call

    def _count_branches(self, branches: list) -> None:
        self.branches_enumerated += len(branches)
        self.impossible_branches += sum(1 for b in branches if b.impossible)

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap the package's public callables under every name bound to them."""
        loaded = [
            mod for key, mod in sys.modules.items()
            if key == "telegate" or key.startswith("telegate.")
        ]
        for short in MODULES:
            module = sys.modules[f"telegate.{short}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                kernel = short == "statevector" and attr in KERNELS
                on_call = self._count_kernel(attr) if kernel else None
                on_result = self._count_branches if attr == "enumerate_branches" else None
                traced = self.wrap(f"{short}.{attr}", fn, on_call, on_result)
                for mod in loaded:
                    for bound, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, bound, traced)

        network = sys.modules["telegate.network"]
        protocols = sys.modules["telegate.protocols"]
        statevector = sys.modules["telegate.statevector"]
        for cls, short in ((network.Network, "network"), (protocols.ProtocolSpec, "protocols")):
            for attr, fn in list(vars(cls).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                self._patch(cls, attr, self.wrap(f"{short}.{cls.__name__}.{attr}", fn))
        post_init = statevector.StateVector.__post_init__
        self._patch(
            statevector.StateVector,
            "__post_init__",
            self.wrap("statevector.StateVector", post_init),
        )

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation -----------------------------------------------------------

    def span_arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def per_name(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, inclusive seconds, self seconds).

        Self time is a span's duration minus the durations of its direct
        children, which is the part of its interval no child span covers.
        """
        spans = self.span_arrays()
        names, parents = spans["name"], spans["parent"]
        duration = (spans["end_ns"] - spans["start_ns"]).astype(np.float64)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=duration[nested], minlength=len(names))
        own = duration - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        inclusive = np.bincount(names, weights=duration, minlength=k)
        exclusive = np.bincount(names, weights=own, minlength=k)
        return {
            name: (int(calls[i]), float(inclusive[i]) * 1e-9, float(exclusive[i]) * 1e-9)
            for i, name in enumerate(self.names)
        }
