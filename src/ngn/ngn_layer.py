"""The weight-shared linear layer over global graph features.

Per directed edge, the message is the class kernel transported to that edge
applied to the source node's block; output blocks aggregate incoming
messages (sum by default, mean behind a flag). Because every class kernel
satisfies its automorphism constraint and transport is functorial, the layer
commutes with feature transport along any graph isomorphism.

A forward computes every node's k-ball once. Each edge runs one canonical
search of its neighbourhood, which gives its class key and canonical
relabeling, and for a new class also the marked automorphisms that its
basis is solved from. The class's representative kernel (built at most once
per call) is placed by the row and column index maps that the relabeling
gives on the two endpoint balls. No isomorphism object is built per edge,
and nothing outlives the call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ClassMissError, ParseError, ShapeError, ValidationError
from .graph_core import ConcreteGraph, GraphIso
from .kernel_solver import (
    SharedKernel,
    class_cache_from_dict,
    class_cache_to_dict,
    edge_class,
    locate_edge,
    solve_basis,
)
from .neighbourhoods import EdgeNeighbourhood, NeighbourhoodAssignment, ball
from .representations import (
    GlobalFeature,
    RepSpec,
    lift_global,
    parse_rep_spec,
)

LAYER_FORMAT_VERSION = 1


@dataclass
class NgnLayer:
    rho: RepSpec
    rho_prime: RepSpec
    assignment: NeighbourhoodAssignment
    aggregation: str = "sum"
    strict: bool = False
    init_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.aggregation not in ("sum", "mean"):
            raise ValidationError(f"unknown aggregation {self.aggregation!r}")
        self.table: dict[bytes, SharedKernel] = {}
        self._rng = np.random.default_rng(self.seed)

    # -- class management ---------------------------------------------------

    def _resolve(self, nb: EdgeNeighbourhood) -> tuple[SharedKernel, dict[int, int]]:
        key, relab, aut = locate_edge(nb)
        shared = self.table.get(key)
        if shared is None:
            if self.strict:
                raise ClassMissError(
                    f"edge {nb.marked} belongs to an unsolved class and strict mode is on"
                )
            basis = solve_basis(edge_class(aut, self.assignment), self.rho, self.rho_prime)
            shared = SharedKernel.random(basis, self._rng, scale=self.init_scale)
            self.table[key] = shared
        return shared, relab

    # -- forward ------------------------------------------------------------

    def forward(self, g: ConcreteGraph, v: GlobalFeature) -> GlobalFeature:
        if set(v.blocks) != set(g.nodes):
            raise ShapeError("feature blocks are not indexed by the graph's nodes")
        balls = {p: ball(g, p, self.assignment.k) for p in g.nodes}
        for p, nodes in balls.items():
            want = self.rho.dim(len(nodes))
            if v.blocks[p].shape != (want,):
                raise ShapeError(f"block at node {p}: expected dim {want}, got {v.blocks[p].shape}")
        out = GlobalFeature({p: np.zeros(self.rho_prime.dim(len(nodes))) for p, nodes in balls.items()})
        kernels: dict[bytes, np.ndarray] = {}  # representative kernel per class key
        in_degree = {p: 0 for p in g.nodes}
        for p, q in sorted(g.edges, key=lambda e: (e[1], e[0])):
            nb = EdgeNeighbourhood(g.subgraph(set(balls[p]) | set(balls[q])), (p, q))
            shared, relab = self._resolve(nb)
            key = shared.basis.edge_class.key
            if key not in kernels:
                kernels[key] = shared.representative_kernel()
            kernel = shared.realize_from_transport(nb, relab, (balls[p], balls[q]), kernels[key])
            out.blocks[q] += kernel @ v.blocks[p]
            in_degree[q] += 1
        if self.aggregation == "mean":
            for q in g.nodes:
                if in_degree[q] > 1:
                    out.blocks[q] /= in_degree[q]
        return out

    # -- persistence ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": LAYER_FORMAT_VERSION,
            "rho": str(self.rho),
            "rho_prime": str(self.rho_prime),
            "k": self.assignment.k,
            "aggregation": self.aggregation,
            "strict": self.strict,
            "init_scale": self.init_scale,
            "seed": self.seed,
            "classes": class_cache_to_dict(list(self.table.values())),
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict()))

    @staticmethod
    def from_dict(payload: dict) -> "NgnLayer":
        """The layer of :meth:`to_dict`'s form. Raises ValidationError on a
        missing or ill-typed field and on classes that do not fit the layer."""
        if not isinstance(payload, dict) or payload.get("version") != LAYER_FORMAT_VERSION:
            version = payload.get("version") if isinstance(payload, dict) else None
            raise ValidationError(f"unsupported layer format version {version!r}")
        try:
            layer = NgnLayer(
                rho=parse_rep_spec(payload["rho"]),
                rho_prime=parse_rep_spec(payload["rho_prime"]),
                assignment=NeighbourhoodAssignment(payload["k"]),
                aggregation=payload["aggregation"],
                strict=payload["strict"],
                init_scale=float(payload["init_scale"]),
                seed=payload["seed"],
            )
            classes = class_cache_from_dict(payload["classes"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed layer: {exc!r}") from None
        for (key, _, _), shared in classes.items():
            basis = shared.basis
            if (basis.rho, basis.rho_prime, basis.edge_class.assignment) != (
                layer.rho, layer.rho_prime, layer.assignment
            ):
                raise ValidationError(f"class {key.hex()} was solved for another layer")
            layer.table[key] = shared
        return layer

    @staticmethod
    def load(path: str | Path) -> "NgnLayer":
        """:meth:`from_dict` of a JSON file; text that is not JSON raises ParseError."""
        path = Path(path)
        try:
            payload = json.loads(path.read_bytes())
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path.name} is not JSON: {exc.msg}", exc.lineno) from None
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path.name} is not JSON text: {exc.reason}") from None
        return NgnLayer.from_dict(payload)


def check_naturality(
    layer: NgnLayer, g: ConcreteGraph, phi: GraphIso, v: GlobalFeature
) -> float:
    """Max-norm residual of the commutation law along one isomorphism."""
    a = layer.assignment
    transported_out = lift_global(phi, layer.forward(g, v), layer.rho_prime, a)
    out_of_transported = layer.forward(phi.target, lift_global(phi, v, layer.rho, a))
    return transported_out.max_abs_diff(out_of_transported)
