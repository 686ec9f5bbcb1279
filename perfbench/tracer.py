"""Per-layer timings taken from outside the program.

The tracer wraps public functions of the ``ngn`` package with timing
shims. A wrapper only sees calls that look the name up where it was put,
so every function is replaced in each ``ngn`` module namespace that holds
it (``ngn_layer`` imports ``locate_edge`` and ``solve_basis`` under its own
names; ``kernel_solver`` does the same for ``automorphism_generators``),
and methods are replaced on their class. The benchmark's own code calls
the package through module attributes (``batched.compile_plan(...)``), so
those calls are seen too.

Each wrapped function records, separately for the set-up phase and the
steady-state phase, its inclusive seconds, its self seconds (inclusive
minus the time spent in wrapped functions beneath it) and its call count.
Calls made outside a phase (the output checks) pass straight through.
A function missing from the package is skipped, and its metrics are
absent from the report.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# Wrapped functions, named "<module>.<attribute path>" inside ``ngn``.
LAYERS = (
    "datasets.synth_suites",
    "datasets.load_tu",
    "lattices.square_torus",
    "batched.compile_plan",
    "batched.node_attrs_to_buffer",
    "batched.gcn2_layer_numpy",
    "batched.compile_gcn_plan",
    "batched.gcn_forward_numpy",
    "batched.gcn2_layer_tensor",
    "models.gcn2_embeddings",
    "models.gcn_embeddings",
    "models.classifier_logits",
    "models.classifier_logits_numpy",
    "autodiff.gather_rows",
    "autodiff.scatter_add_rows",
    "autodiff.sparse_mix",
    "autodiff.segment_mean",
    "autodiff.grads_of",
    "autodiff.adam_step",
    "ngn_layer.NgnLayer.forward",
    "kernel_solver.locate_edge",
    "kernel_solver.solve_basis",
    "kernel_solver.SharedKernel.realize_from_transport",
    "graph_core.automorphism_generators",
    "representations.lift_global",
)

# Reported as self time only: its inclusive time is the sum of its parts.
SELF_ONLY = {"models.gcn2_embeddings"}

PHASES = ("setup", "steady")


def _gcn2_flops(plan, net, *args, **kwargs) -> float:
    """Floating-point operations of one ``gcn2_layer_numpy`` call, computed
    from sizes: the self and neighbour matmuls of every message-net layer
    over all edge rows, plus the sparse neighbour mean."""
    total = 0.0
    for layer in net.layers:
        c_in, c_out = layer.w_self.shape
        total += 2.0 * (2 * plan.edge_rows * c_in * c_out + plan.mix.nnz * c_in)
    return total


# Extra per-call quantities, summed like the call count: name -> f(args, kwargs, result).
EXTRAS = {
    "batched.compile_plan": lambda args, kwargs, result: float(result.edge_rows),
    "batched.gcn2_layer_numpy": lambda args, kwargs, result: _gcn2_flops(*args, **kwargs),
}


class _Record:
    __slots__ = ("seconds", "self_seconds", "calls", "extra")

    def __init__(self):
        self.seconds = 0.0
        self.self_seconds = 0.0
        self.calls = 0
        self.extra = 0.0


class Tracer:
    """Install with ``install()``, set ``phase`` around timed work, read
    ``metrics(n_setups, n_units)``, and ``uninstall()`` to restore."""

    def __init__(self):
        self.phase: str | None = None
        self.records = {name: {p: _Record() for p in PHASES} for name in LAYERS}
        self.present: set[str] = set()
        self._stack: list[float] = []
        self._depth = {name: 0 for name in LAYERS}
        self._patches: list[tuple[object, str, object]] = []

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        for name in LAYERS:
            module_name, *path = name.split(".")
            owner = importlib.import_module(f"ngn.{module_name}")
            for attr in path[:-1]:
                owner = getattr(owner, attr, None)
            original = getattr(owner, path[-1], None) if owner is not None else None
            if original is None:
                continue
            self.present.add(name)
            wrapper = self._wrap(name, original)
            if len(path) > 1:  # a method: replace it on its class
                self._patch(owner, path[-1], wrapper)
                continue
            for mod_name, module in list(sys.modules.items()):
                if mod_name == "ngn" or mod_name.startswith("ngn."):
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, name, fn):
        records = self.records[name]
        extra = EXTRAS.get(name)
        stack, depth = self._stack, self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            phase = self.phase
            if phase is None:
                return fn(*args, **kwargs)
            outermost = depth[name] == 0
            depth[name] += 1
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                depth[name] -= 1
            rec = records[phase]
            if outermost:
                rec.seconds += elapsed
            rec.self_seconds += elapsed - children
            rec.calls += 1
            if extra is not None:
                rec.extra += extra(args, kwargs, result)
            return result

        return wrapper

    # -- report ---------------------------------------------------------------

    def _total(self, name: str, field: str) -> float:
        return sum(getattr(self.records[name][p], field) for p in PHASES)

    def metrics(self, n_setups: int, n_units: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit).

        Times and counts are per traced set-up plus per traced unit of
        steady-state work, so runs of different lengths compare.
        """
        out: dict[str, tuple[float, str]] = {}

        def per_unit(name, field):
            rec = self.records[name]
            return getattr(rec["setup"], field) / max(n_setups, 1) + getattr(rec["steady"], field) / max(n_units, 1)

        for name in LAYERS:
            if name not in self.present:
                continue
            if name in SELF_ONLY:
                out[f"{name}.self_s"] = (per_unit(name, "self_seconds"), "s")
            else:
                out[f"{name}.s"] = (per_unit(name, "seconds"), "s")
        if "batched.compile_plan" in self.present:
            out["batched.compile_plan.calls"] = (per_unit("batched.compile_plan", "calls"), "count")
            out["batched.compile_plan.edge_rows"] = (per_unit("batched.compile_plan", "extra"), "rows")
        if "batched.gcn2_layer_numpy" in self.present:
            secs = self._total("batched.gcn2_layer_numpy", "seconds")
            flop = self._total("batched.gcn2_layer_numpy", "extra")
            out["batched.gcn2_layer_numpy.gflop_per_s"] = (flop / secs / 1e9 if secs > 0 else 0.0, "GFLOP/s")
        if "kernel_solver.solve_basis" in self.present:
            out["kernel_solver.solve_basis.calls"] = (per_unit("kernel_solver.solve_basis", "calls"), "classes")
            if "kernel_solver.locate_edge" in self.present:
                located = self._total("kernel_solver.locate_edge", "calls")
                solved = self._total("kernel_solver.solve_basis", "calls")
                ratio = 1.0 - solved / located if located else 0.0
                out["ngn_layer.class_hit_ratio"] = (ratio, "ratio")
        return out
