"""Feature-space recipes for neighbourhoods and the matrices they assign.

A RepSpec is a direct sum of parts, each ``trivial`` or ``standard`` with a
channel multiplicity. The standard part assigns one coordinate per
neighbourhood node; local isomorphisms act by permuting those coordinates.

Layout convention (fixed globally): parts are concatenated in order; inside
a standard part, coordinates are node-major with nodes ordered by ascending
global id, i.e. index = node_rank * channels + channel. The trivial part is
just its channels.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError
from .graph_core import ConcreteGraph, GraphIso, validate_iso
from .neighbourhoods import (
    EdgeNeighbourhood,
    NeighbourhoodAssignment,
    NodeNeighbourhood,
    node_neighbourhood,
    restrict_global_iso,
)

KINDS = ("trivial", "standard")


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

    def pure_standard_channels(self) -> int | None:
        """Channel count if this is a single standard part, else None."""
        if len(self.parts) == 1 and self.parts[0][0] == "standard":
            return self.parts[0][1]
        return None


_PART_RE = re.compile(r"^(trivial|standard)(?:\*(\d+))?$")


def parse_rep_spec(text: str) -> RepSpec:
    """Parse the CLI text form, e.g. ``standard*16`` or ``trivial*8+standard*4``."""
    parts = []
    for chunk in text.strip().split("+"):
        m = _PART_RE.match(chunk.strip())
        if not m:
            raise ValidationError(f"cannot parse representation part {chunk!r}")
        parts.append((m.group(1), int(m.group(2) or 1)))
    return RepSpec(tuple(parts))


def structural_dim(kind: str, n_nodes: int) -> int:
    return 1 if kind == "trivial" else n_nodes


def rep_dim(spec: RepSpec, nb: NodeNeighbourhood | EdgeNeighbourhood) -> int:
    n = nb.graph.n
    return sum(structural_dim(kind, n) * c for kind, c in spec.parts)


def rep_index(spec: RepSpec, psi: GraphIso) -> np.ndarray:
    """Where psi sends each coordinate under spec.

    Source coordinate i goes to target coordinate ``rep_index(spec, psi)[i]``.
    This is the whole action: the matrix that :func:`rep_matrix` assigns has
    a single one per column, at these rows.
    """
    tgt_rank = {v: i for i, v in enumerate(psi.target.nodes)}
    node_perm = np.array([tgt_rank[psi.map[u]] for u in psi.source.nodes], dtype=np.intp)
    pieces, offset = [], 0
    for kind, c in spec.parts:
        perm = node_perm if kind == "standard" else np.zeros(1, dtype=np.intp)
        pieces.append(offset + (perm[:, None] * c + np.arange(c)).reshape(-1))
        offset += perm.size * c
    return np.concatenate(pieces)


@dataclass(frozen=True)
class RepMatrix:
    """The invertible linear map a representation assigns to an isomorphism."""

    source_dim: int
    target_dim: int
    entries: np.ndarray

    def apply(self, vec: np.ndarray) -> np.ndarray:
        if vec.shape[0] != self.source_dim:
            raise ShapeError(f"expected vector of dim {self.source_dim}, got {vec.shape[0]}")
        return self.entries @ vec


def rep_matrix(spec: RepSpec, psi: GraphIso) -> RepMatrix:
    """Permutation matrix of psi's action under spec."""
    if not validate_iso(psi):
        raise ValidationError("psi does not preserve edges")
    index = rep_index(spec, psi)
    entries = np.zeros((index.size, index.size))
    entries[index, np.arange(index.size)] = 1.0
    return RepMatrix(index.size, index.size, entries)


@dataclass
class GlobalFeature:
    """Per-node feature blocks over a graph's node neighbourhoods."""

    blocks: dict[int, np.ndarray]

    def copy(self) -> "GlobalFeature":
        return GlobalFeature({p: b.copy() for p, b in self.blocks.items()})

    def max_abs_diff(self, other: "GlobalFeature") -> float:
        if set(self.blocks) != set(other.blocks):
            raise ShapeError("features are indexed by different node sets")
        worst = 0.0
        for p, b in self.blocks.items():
            if b.shape != other.blocks[p].shape:
                raise ShapeError(f"block shape mismatch at node {p}")
            worst = max(worst, float(np.max(np.abs(b - other.blocks[p]))) if b.size else 0.0)
        return worst


def zero_feature(spec: RepSpec, g: ConcreteGraph, a: NeighbourhoodAssignment) -> GlobalFeature:
    return GlobalFeature(
        {p: np.zeros(rep_dim(spec, node_neighbourhood(g, p, a))) for p in g.nodes}
    )


def random_feature(
    rng: np.random.Generator, spec: RepSpec, g: ConcreteGraph, a: NeighbourhoodAssignment
) -> GlobalFeature:
    return GlobalFeature(
        {p: rng.standard_normal(rep_dim(spec, node_neighbourhood(g, p, a))) for p in g.nodes}
    )


def lift_global(
    phi: GraphIso,
    v: GlobalFeature,
    spec: RepSpec,
    a: NeighbourhoodAssignment,
) -> GlobalFeature:
    """Transport a global feature along a graph isomorphism.

    The output block at phi(p) is the source block at p pushed through the
    matrix assigned to the restricted local isomorphism.
    """
    if set(v.blocks) != set(phi.source.nodes):
        raise ShapeError("feature is not indexed by the source graph's nodes")
    out: dict[int, np.ndarray] = {}
    for p in phi.source.nodes:
        nb = node_neighbourhood(phi.source, p, a)
        local = restrict_global_iso(phi, nb, a)
        mat = rep_matrix(spec, local)
        if v.blocks[p].shape[0] != mat.source_dim:
            raise ShapeError(
                f"block at node {p} has dim {v.blocks[p].shape[0]}, expected {mat.source_dim}"
            )
        out[phi.apply(p)] = mat.apply(v.blocks[p])
    return GlobalFeature(out)
