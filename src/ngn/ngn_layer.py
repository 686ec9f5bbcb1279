"""The weight-shared linear layer over global graph features.

Per directed edge, the message is the class kernel transported to that edge
applied to the source node's block. The layer supplies only that message;
:func:`ngn.representations.aggregate` walks the edges, as it does for the
GCN² oracle. Because every class kernel satisfies its automorphism
constraint and transport is functorial, the layer commutes with feature
transport along any graph isomorphism.

Each edge runs one canonical search of its neighbourhood, which gives its
class key and canonical relabeling, and for a new class also the marked
automorphisms that its basis is solved from. Once the relabeling is checked
to map the edge onto its class representative, the representative kernel
(built at most once per call) is placed by the row and column index maps
that the relabeling gives on the two endpoint balls.

A new class draws its weights from a generator seeded by the layer's seed
and the class key, so they depend on neither the order in which classes are
met nor on whether the layer was saved and loaded in between. This module
alone reads and writes the layer file: the layer's fields once, then each
class's key, representative neighbourhood and weights. Loading runs one
search of each representative, which checks its key and canonical position
and gives its marked automorphisms, and solves the orbit basis again, so no
file can carry a kernel space that breaks the constraint.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ClassMissError, ParseError, ShapeError, ValidationError
from .graph_core import ConcreteGraph, GraphIso
from .kernel_solver import SharedKernel, edge_class, locate_edge, solve_basis
from .neighbourhoods import EdgeNeighbourhood, NeighbourhoodAssignment
from .representations import GlobalFeature, RepSpec, aggregate, lift_global, parse_rep_spec

LAYER_FORMAT_VERSION = 2


@dataclass
class NgnLayer:
    rho: RepSpec
    rho_prime: RepSpec
    assignment: NeighbourhoodAssignment
    aggregation: str = "sum"
    strict: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.aggregation not in ("sum", "mean"):
            raise ValidationError(f"unknown aggregation {self.aggregation!r}")
        if type(self.seed) is not int or self.seed < 0:
            raise ValidationError(f"seed must be a natural number, not {self.seed!r}")
        if type(self.strict) is not bool:
            raise ValidationError(f"strict must be true or false, not {self.strict!r}")
        self.table: dict[bytes, SharedKernel] = {}

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
            rng = np.random.default_rng([self.seed, int.from_bytes(key, "big")])
            shared = SharedKernel.random(basis, rng)
            self.table[key] = shared
        return shared, relab

    # -- forward ------------------------------------------------------------

    def forward(self, g: ConcreteGraph, v: GlobalFeature) -> GlobalFeature:
        kernels: dict[bytes, np.ndarray] = {}  # representative kernel per class key

        def message(nb: EdgeNeighbourhood, tail_ball, head_ball, block: np.ndarray) -> np.ndarray:
            shared, relab = self._resolve(nb)
            key = shared.basis.edge_class.key
            if key not in kernels:
                kernels[key] = shared.representative_kernel()
            return shared.realize_from_transport(nb, relab, (tail_ball, head_ball), kernels[key]) @ block

        return aggregate(g, v, self.rho, self.rho_prime, self.assignment, message, self.aggregation)

    # -- persistence ---------------------------------------------------------

    def to_dict(self) -> dict:
        """The layer file's form: the layer's fields, then each class's key,
        representative neighbourhood and weights. Generators and bases are
        derived from the representative, so they are not written."""
        classes = []
        for key, shared in self.table.items():
            rep = shared.basis.edge_class.representative
            classes.append(
                {
                    "key": key.hex(),
                    "nodes": list(rep.graph.nodes),
                    "edges": sorted(list(e) for e in rep.graph.edges),
                    "marked": list(rep.marked),
                    "weights": [w.tolist() for w in shared.weights],
                }
            )
        return {
            "version": LAYER_FORMAT_VERSION,
            "rho": str(self.rho),
            "rho_prime": str(self.rho_prime),
            "k": self.assignment.k,
            "aggregation": self.aggregation,
            "strict": self.strict,
            "seed": self.seed,
            "classes": classes,
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict()))

    @staticmethod
    def from_dict(payload: dict) -> "NgnLayer":
        """The layer of :meth:`to_dict`'s form, with each class's basis
        solved again from its representative.

        Raises ValidationError on anything else: another version, a missing
        or ill-typed field, a key that is not hex or not the canonical key
        of its representative, a key listed twice, a representative off its
        canonical labeling, marks that are not an edge of the representative,
        or weights that are not finite or do not fit the solved basis.
        """
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
                seed=payload["seed"],
            )
            if not isinstance(payload["classes"], list):
                raise ValidationError("layer classes must be a list")
            for index, entry in enumerate(payload["classes"]):
                shared = layer._class_from_entry(entry, index)
                if shared.basis.edge_class.key in layer.table:
                    raise ValidationError(f"class {index}: its key is listed twice")
                layer.table[shared.basis.edge_class.key] = shared
        except (KeyError, TypeError, ValueError, OverflowError, ShapeError) as exc:
            raise ValidationError(f"malformed layer: {exc!r}") from None
        return layer

    def _class_from_entry(self, entry: dict, index: int) -> SharedKernel:
        graph = ConcreteGraph.build(entry["nodes"], [tuple(e) for e in entry["edges"]])
        marked = tuple(entry["marked"])
        if len(marked) != 2 or marked not in graph.edges:
            raise ValidationError(f"class {index}: marked edge {marked} is not an edge of its representative")
        rep = EdgeNeighbourhood(graph, marked)
        key, _, aut = locate_edge(rep)
        ec = edge_class(aut, self.assignment)
        if bytes.fromhex(entry["key"]) != key or ec.representative != rep:
            raise ValidationError(f"class {index}: key and representative do not match their canonical form")
        weights = [np.array(w, dtype=float) for w in entry["weights"]]
        if not all(np.all(np.isfinite(w)) for w in weights):
            raise ValidationError(f"class {index}: non-finite weights")
        return SharedKernel(solve_basis(ec, self.rho, self.rho_prime), weights)

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
