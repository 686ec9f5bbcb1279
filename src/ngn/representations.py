"""Feature-space recipes for neighbourhoods and the matrices they assign.

A RepSpec is a direct sum of parts, each ``trivial`` or ``standard`` with a
channel multiplicity. The standard part assigns one coordinate per node of
the ball (:func:`ngn.neighbourhoods.ball`); a node map acts on a ball by
:func:`ball_map`, the ranks of the images in the target ball, and on the
coordinates by :func:`rep_index_from_perm`. Every action is that index map;
the permutation matrices of :func:`rep_matrix` serve only as its dense
oracle.

Layout convention (fixed globally): parts are concatenated in order; inside
a standard part, coordinates are node-major with nodes ordered by ascending
global id, i.e. index = node_rank * channels + channel. The trivial part is
just its channels.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import CapacityError, ShapeError, ValidationError
from .graph_core import ConcreteGraph, GraphIso, validate_iso
from .neighbourhoods import EdgeNeighbourhood, NeighbourhoodAssignment, ball

KINDS = ("trivial", "standard")

# The largest channel multiplicity of one part. A layer keeps r x c_in x
# c_out weights per pair of parts and per class, and realizes kernels of
# rho'.dim x rho.dim entries, so a class's memory grows with the square of
# the multiplicity: at the cap, one pair of trivial parts holds 8 MiB of
# float64 weights per class. The package itself uses at most 16.
MULTIPLICITY_CAP = 1024


@dataclass(frozen=True)
class RepSpec:
    """Direct sum of (kind, channels) parts."""

    parts: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if not self.parts:
            raise ValidationError("a representation needs at least one part")
        for kind, c in self.parts:
            if kind not in KINDS:
                raise ValidationError(f"unknown representation kind {kind!r}")
            if c < 1:
                raise ValidationError("channel multiplicity must be positive")
            if c > MULTIPLICITY_CAP:
                raise CapacityError(f"channel multiplicity {c} is above the cap {MULTIPLICITY_CAP}")

    @staticmethod
    def trivial(channels: int = 1) -> "RepSpec":
        return RepSpec((("trivial", channels),))

    @staticmethod
    def standard(channels: int = 1) -> "RepSpec":
        return RepSpec((("standard", channels),))

    def __add__(self, other: "RepSpec") -> "RepSpec":
        return RepSpec(self.parts + other.parts)

    def __str__(self) -> str:
        return "+".join(f"{kind}*{c}" for kind, c in self.parts)

    def dim(self, n_nodes: int) -> int:
        """Dimension on a neighbourhood of ``n_nodes`` nodes."""
        return sum(structural_dim(kind, n_nodes) * c for kind, c in self.parts)

    def offsets(self, n_nodes: int) -> list[int]:
        """The first coordinate of each part on a neighbourhood of ``n_nodes`` nodes."""
        return list(accumulate((structural_dim(kind, n_nodes) * c for kind, c in self.parts[:-1]), initial=0))


_PART_RE = re.compile(r"^(trivial|standard)(?:\*(\d+))?$")


def parse_rep_spec(text: str) -> RepSpec:
    """Parse the CLI text form, e.g. ``standard*16`` or ``trivial*8+standard*4``."""
    if not isinstance(text, str):
        raise ValidationError(f"a representation is given as text, not {type(text).__name__}")
    parts = []
    for chunk in text.strip().split("+"):
        m = _PART_RE.match(chunk.strip())
        if not m:
            raise ValidationError(f"cannot parse representation part {chunk!r}")
        parts.append((m.group(1), int(m.group(2) or 1)))
    return RepSpec(tuple(parts))


def structural_dim(kind: str, n_nodes: int) -> int:
    return 1 if kind == "trivial" else n_nodes


def ball_map(mapping: Mapping[int, int], ball: Sequence[int], target_ball: Sequence[int]) -> np.ndarray:
    """How a node map moves the nodes of one ball onto another's.

    Entry i is the rank in ``target_ball`` of ``mapping[ball[i]]`` (both
    balls in ascending id order). Raises ValidationError unless the image of
    ``ball`` is exactly ``target_ball``.
    """
    rank = {v: i for i, v in enumerate(target_ball)}
    try:
        perm = [rank[mapping[u]] for u in ball]
    except KeyError:
        raise ValidationError("the node map does not send the ball into the target ball") from None
    if len(perm) != len(rank) or len(set(perm)) != len(perm):
        raise ValidationError("the node map does not send the ball onto the target ball")
    return np.array(perm, dtype=np.intp)


def rep_index(spec: RepSpec, psi: GraphIso) -> np.ndarray:
    """Where psi sends each coordinate under spec.

    Source coordinate i goes to target coordinate ``rep_index(spec, psi)[i]``.
    This is the whole action: the matrix that :func:`rep_matrix` assigns has
    a single one per column, at these rows.
    """
    return rep_index_from_perm(spec, ball_map(psi.map, psi.source.nodes, psi.target.nodes))


def rep_index_from_perm(spec: RepSpec, node_perm: np.ndarray) -> np.ndarray:
    """Where a node permutation sends each coordinate under spec.

    ``node_perm`` is a :func:`ball_map`. This is the one place that knows
    the coordinate layout.
    """
    pieces, offset = [], 0
    for kind, c in spec.parts:
        perm = node_perm if kind == "standard" else np.zeros(1, dtype=np.intp)
        pieces.append(offset + (perm if c == 1 else (perm[:, None] * c + np.arange(c)).reshape(-1)))
        offset += perm.size * c
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


def rep_matrix(spec: RepSpec, psi: GraphIso) -> np.ndarray:
    """Permutation matrix of psi's action under spec."""
    if not validate_iso(psi):
        raise ValidationError("psi does not preserve edges")
    index = rep_index(spec, psi)
    entries = np.zeros((index.size, index.size))
    entries[index, np.arange(index.size)] = 1.0
    return entries


@dataclass
class GlobalFeature:
    """Per-node feature blocks over a graph's node neighbourhoods."""

    blocks: dict[int, np.ndarray]

    def max_abs_diff(self, other: "GlobalFeature") -> float:
        if set(self.blocks) != set(other.blocks):
            raise ShapeError("features are indexed by different node sets")
        worst = 0.0
        for p, b in self.blocks.items():
            if b.shape != other.blocks[p].shape:
                raise ShapeError(f"block shape mismatch at node {p}")
            worst = max(worst, float(np.max(np.abs(b - other.blocks[p]))) if b.size else 0.0)
        return worst


def aggregate(
    g: ConcreteGraph, v: GlobalFeature, rho: RepSpec, rho_prime: RepSpec, a: NeighbourhoodAssignment,
    message: Callable[[EdgeNeighbourhood, tuple[int, ...], tuple[int, ...], np.ndarray], np.ndarray], aggregation: str,
) -> GlobalFeature:
    """The edge walk of a local layer: each block of ``v`` must have ``rho``'s dimension on its node's ball
    (else ShapeError). Each edge (p, q), in (head, tail) order, adds ``message(nb, ball(p), ball(q), v.blocks[p])``
    into q's zero ``rho_prime`` block, nb the subgraph induced on both balls and marked (p, q); under ``"mean"``,
    each block whose node has more than one in-edge is then divided by that in-degree."""
    if aggregation not in ("sum", "mean"):
        raise ValidationError(f"unknown aggregation {aggregation!r}")
    if set(v.blocks) != set(g.nodes):
        raise ShapeError("feature blocks are not indexed by the graph's nodes")
    balls = {p: ball(g, p, a.k) for p in g.nodes}
    for p, nodes in balls.items():
        want = rho.dim(len(nodes))
        if v.blocks[p].shape != (want,):
            raise ShapeError(f"block at node {p}: expected dim {want}, got {v.blocks[p].shape}")
    out = {p: np.zeros(rho_prime.dim(len(nodes))) for p, nodes in balls.items()}
    for p, q in sorted(g.edges, key=lambda e: (e[1], e[0])):
        nb = EdgeNeighbourhood(g.subgraph(set(balls[p]) | set(balls[q])), (p, q))
        out[q] += message(nb, balls[p], balls[q], v.blocks[p])
    if aggregation == "mean":
        for q in g.nodes:
            if len(g.in_nbrs[q]) > 1:
                out[q] /= len(g.in_nbrs[q])
    return GlobalFeature(out)


def random_feature(
    rng: np.random.Generator, spec: RepSpec, g: ConcreteGraph, a: NeighbourhoodAssignment
) -> GlobalFeature:
    return GlobalFeature({p: rng.standard_normal(spec.dim(len(ball(g, p, a.k)))) for p in g.nodes})


def lift_global(
    phi: GraphIso,
    v: GlobalFeature,
    spec: RepSpec,
    a: NeighbourhoodAssignment,
) -> GlobalFeature:
    """Transport a global feature along a graph isomorphism.

    The output block at phi(p) is the source block at p with its
    coordinates moved to where the restriction of phi to p's ball sends
    them: an index scatter, equal to the product with the matrix that
    :func:`rep_matrix` assigns to the restricted local isomorphism.
    """
    if set(v.blocks) != set(phi.source.nodes):
        raise ShapeError("feature is not indexed by the source graph's nodes")
    if not validate_iso(phi):
        raise ValidationError("phi is not a graph isomorphism")
    out: dict[int, np.ndarray] = {}
    for p in phi.source.nodes:
        index = rep_index_from_perm(
            spec, ball_map(phi.map, ball(phi.source, p, a.k), ball(phi.target, phi.map[p], a.k))
        )
        block = v.blocks[p]
        if block.shape[0] != index.size:
            raise ShapeError(f"block at node {p} has dim {block.shape[0]}, expected {index.size}")
        lifted = np.empty_like(block, dtype=np.result_type(block, np.float64))
        lifted[index] = block
        out[phi.map[p]] = lifted
    return GlobalFeature(out)
