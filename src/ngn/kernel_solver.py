"""Edge-neighbourhood isomorphism classes and equivariant kernel bases.

Edges whose marked neighbourhoods are isomorphic (marks onto marks, in
orientation) share one kernel. Per class, the kernel must commute with every
marked automorphism of the representative neighbourhood. For permutation
representations the commuting kernels are spanned exactly by the indicators
of the group's orbits on (head-ball coordinate, tail-ball coordinate) pairs,
so the basis is read off the generators' action with no numerical solve, and
is parameterized by weights per basis element and channel pair. A basis
is kept as one orbit label per kernel entry, and a kernel is the gather
``w[label]`` times each entry's unit-norm factor 1/sqrt(orbit size)
(Ravanbakhsh, Schneider & Poczos, 2017: the group's orbits on index pairs
tie the parameters). Kernels at member edges are obtained by transporting
the representative kernel along the member's canonical relabeling, which
permutes its rows and columns by index.

Channel multiplicities never enter the solve: the constraint decouples per
channel pair, so bases are found once per (kind, kind) part pair on
single-channel actions.

Each edge runs one canonical search (:func:`locate_edge`), which gives its
class key, its canonical relabeling and its marked automorphisms. A new
class takes those automorphisms, conjugated onto its representative, from
that search; it never searches again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .errors import ShapeError, ValidationError
from .graph_core import (
    AutGenerators,
    CanonicalForm,
    ConcreteGraph,
    GraphIso,
    _orbits,
    automorphism_generators,
    enumerate_group,
    validate_iso,
)
from .neighbourhoods import (
    EdgeNeighbourhood,
    NeighbourhoodAssignment,
    ball,
    edge_neighbourhood,
    restrict_edge_iso,
)
from .representations import (
    RepSpec,
    ball_map,
    rep_index_from_perm,
    rep_matrix,
    structural_dim,
)


def locate_edge(nb: EdgeNeighbourhood) -> tuple[bytes, dict[int, int], AutGenerators]:
    """Canonical key of a marked edge neighbourhood, its relabeling and its
    marked automorphisms, all from one search with the tail and then the
    head pinned.

    The relabeling maps original ids to canonical positions; its inverse is
    the transport from the class representative onto this neighbourhood.
    """
    aut = automorphism_generators(nb.graph, nb.marked)
    return aut.form.encoding, aut.form.relabel_map, aut


@dataclass
class EdgeClass:
    """One isomorphism class of marked edge neighbourhoods."""

    key: bytes
    representative: EdgeNeighbourhood  # canonical copy on ids 0..n-1
    assignment: NeighbourhoodAssignment
    aut: AutGenerators  # automorphisms pinning p -> p and q -> q

    @cached_property
    def tail_ball(self) -> tuple[int, ...]:
        return ball(self.representative.graph, self.representative.tail, self.assignment.k)

    @cached_property
    def head_ball(self) -> tuple[int, ...]:
        return ball(self.representative.graph, self.representative.head, self.assignment.k)

    @cached_property
    def group(self) -> list[GraphIso]:
        return enumerate_group(self.aut)

    @cached_property
    def group_restrictions(self) -> list[tuple[GraphIso, GraphIso]]:
        """(tail, head) node-ball restrictions of every group element."""
        rep = self.representative
        return [
            (
                restrict_edge_iso(chi, rep, rep, "tail", self.assignment),
                restrict_edge_iso(chi, rep, rep, "head", self.assignment),
            )
            for chi in self.group
        ]


def edge_class(aut: AutGenerators, a: NeighbourhoodAssignment) -> EdgeClass:
    """The class of the neighbourhood that :func:`locate_edge` searched to
    give ``aut``. Its representative is that neighbourhood relabeled onto
    canonical positions, and its marked automorphisms are ``aut``'s
    generators conjugated by the relabeling, so no second search runs."""
    relab = aut.form.relabel_map
    rep = EdgeNeighbourhood(aut.graph.relabel(relab), (relab[aut.marked[0]], relab[aut.marked[1]]))
    maps = tuple({relab[v]: relab[w] for v, w in gen.items()} for gen in aut.maps)
    form = CanonicalForm(aut.form.encoding, tuple((v, v) for v in rep.graph.nodes))
    return EdgeClass(aut.form.encoding, rep, a, AutGenerators(rep.graph, rep.marked, maps, form))


def classify_edges(
    corpus: list[ConcreteGraph], a: NeighbourhoodAssignment
) -> list[EdgeClass]:
    """The isomorphism classes of the corpus's directed edges, in the order
    of their first edge (graphs in order, edges sorted)."""
    classes: dict[bytes, EdgeClass] = {}
    for g in corpus:
        for p, q in sorted(g.edges):
            nb = edge_neighbourhood(g, p, q, a)
            key, _, aut = locate_edge(nb)
            if key not in classes:
                classes[key] = edge_class(aut, a)
    return list(classes.values())


@dataclass(frozen=True)
class PairBasis:
    """Orbit basis of the kernels from one input part to one output part, on
    single-channel actions; all ``c_out * c_in`` channel pairs share it.

    ``labels[a, b]`` is the orbit of kernel entry (a, b). Orbit r is the
    r-th to appear in row-major entry order, and basis element r is its
    indicator scaled to unit Frobenius norm, so the weights of a class are
    read in that order."""

    out_part: int
    in_part: int
    c_out: int
    c_in: int
    labels: np.ndarray  # (n_out_struct, n_in_struct) orbit of each entry

    @cached_property
    def norms(self) -> np.ndarray:
        """Each orbit's entry value in its unit-norm indicator, 1/sqrt(orbit size)."""
        return 1.0 / np.sqrt(np.bincount(self.labels.reshape(-1)))

    @property
    def rank(self) -> int:
        return self.norms.size


@dataclass
class KernelBasis:
    """Solution basis of the class constraint for a representation pair."""

    edge_class: EdgeClass
    rho: RepSpec
    rho_prime: RepSpec
    pair_bases: tuple[PairBasis, ...]

    @property
    def rank(self) -> int:
        return sum(pb.rank * pb.c_in * pb.c_out for pb in self.pair_bases)

    @cached_property
    def dims(self) -> tuple[int, int]:
        ec = self.edge_class
        return self.rho_prime.dim(len(ec.head_ball)), self.rho.dim(len(ec.tail_ball))

    def basis_matrices(self) -> list[np.ndarray]:
        """The full-dimension basis, one dense matrix per rank unit: the
        :meth:`SharedKernel.representative_kernel` of each one-hot weight,
        in the order (part pair, orbit, output channel, input channel)."""
        out: list[np.ndarray] = []
        for j, pb in enumerate(self.pair_bases):
            for r, oc, ic in np.ndindex(pb.rank, pb.c_out, pb.c_in):
                weights = [np.zeros((p.rank, p.c_in, p.c_out)) for p in self.pair_bases]
                weights[j][r, ic, oc] = 1.0
                out.append(SharedKernel(self, weights).representative_kernel())
        return out


def _orbit_basis(actions: list[tuple[np.ndarray, np.ndarray]], n_out: int, n_in: int) -> np.ndarray:
    """Orbit labels of the entries of an (n_out, n_in) kernel.

    Each action is a (head, tail) pair of index maps moving entry (a, b) to
    (head[a], tail[b]). The orbits are joined by :func:`_orbits`' union-find
    over the entries' images, which roots each orbit at its smallest entry,
    its first in row-major order; ranking the roots numbers the orbits in
    that order.
    """
    images = [(head[:, None] * n_in + tail[None, :]).reshape(-1).tolist() for head, tail in actions]
    roots = _orbits(list(range(n_out * n_in)), images)
    return np.unique(list(roots.values()), return_inverse=True)[1].reshape(n_out, n_in)


def solve_basis(ec: EdgeClass, rho: RepSpec, rho_prime: RepSpec) -> KernelBasis:
    """Exact orthonormal basis of the kernels commuting with the class's
    marked automorphisms.

    Each part pair's basis labels the orbits of the generators' action on
    its entries (:class:`PairBasis`). The group is never enumerated, and the
    rank equals the trace of the group-average projector (Burnside's lemma).
    """
    tail, head = ec.tail_ball, ec.head_ball
    perms = [(ball_map(gen, head, head), ball_map(gen, tail, tail)) for gen in ec.aut.maps]
    n_in, n_out = len(tail), len(head)
    struct_cache: dict[tuple[str, str], np.ndarray] = {}
    pair_bases = []
    for j, (kind_out, c_out) in enumerate(rho_prime.parts):
        for i, (kind_in, c_in) in enumerate(rho.parts):
            kinds = (kind_out, kind_in)
            if kinds not in struct_cache:
                spec_out, spec_in = RepSpec(((kind_out, 1),)), RepSpec(((kind_in, 1),))
                actions = [
                    (rep_index_from_perm(spec_out, head_perm), rep_index_from_perm(spec_in, tail_perm))
                    for head_perm, tail_perm in perms
                ]
                struct_cache[kinds] = _orbit_basis(
                    actions, structural_dim(kind_out, n_out), structural_dim(kind_in, n_in)
                )
            pair_bases.append(PairBasis(j, i, c_out, c_in, struct_cache[kinds]))
    return KernelBasis(ec, rho, rho_prime, tuple(pair_bases))


@dataclass
class SharedKernel:
    """Per-class weights over the basis."""

    basis: KernelBasis
    weights: list[np.ndarray]  # aligned with basis.pair_bases: (r, c_in, c_out)

    def __post_init__(self):
        if len(self.weights) != len(self.basis.pair_bases):
            raise ShapeError("one weight array per basis pair expected")
        for w, pb in zip(self.weights, self.basis.pair_bases):
            if w.shape != (pb.rank, pb.c_in, pb.c_out):
                raise ShapeError(f"weight shape {w.shape} does not match basis pair")

    @staticmethod
    def random(basis: KernelBasis, rng: np.random.Generator) -> "SharedKernel":
        return SharedKernel(
            basis, [rng.standard_normal((pb.rank, pb.c_in, pb.c_out)) for pb in basis.pair_bases]
        )

    def representative_kernel(self) -> np.ndarray:
        d_out, d_in = self.basis.dims
        ec = self.basis.edge_class
        out_off, in_off = self.basis.rho_prime.offsets(len(ec.head_ball)), self.basis.rho.offsets(len(ec.tail_ball))
        k = np.zeros((d_out, d_in))
        for pb, w in zip(self.basis.pair_bases, self.weights):
            ro, co = out_off[pb.out_part], in_off[pb.in_part]
            n_o, n_i = pb.labels.shape
            # entry (a, b) of channel pair (i, o) is w[r, i, o] * norms[r] for its orbit r
            gathered = (w * pb.norms[:, None, None])[pb.labels]
            block = gathered.transpose(0, 3, 1, 2).reshape(n_o * pb.c_out, n_i * pb.c_in)
            k[ro : ro + n_o * pb.c_out, co : co + n_i * pb.c_in] += block
        return k

    def realize_from_transport(
        self,
        nb: EdgeNeighbourhood,
        relab: Mapping[int, int],
        balls: tuple[Sequence[int], Sequence[int]],
        kernel: np.ndarray,
    ) -> np.ndarray:
        """Transported kernel for a member neighbourhood.

        ``relab`` sends the member's node ids to the representative's, as
        :func:`locate_edge` returns it; ``balls`` are the member's tail and
        head balls (:func:`ngn.neighbourhoods.ball`), and ``kernel`` is
        :meth:`representative_kernel`. ``relab`` moves each member ball onto
        the representative's (:func:`ball_map`); gathering the kernel's rows
        and columns by those index maps equals conjugating it by the
        representation matrices of the transport restricted to the two balls.

        Raises ValidationError unless ``relab`` maps the member onto the
        representative: marks onto marks, edges onto edges, balls onto balls.
        """
        ec = self.basis.edge_class
        onto = validate_iso(GraphIso.build(nb.graph, ec.representative.graph, relab))
        if not onto or (relab[nb.tail], relab[nb.head]) != ec.representative.marked:
            raise ValidationError(f"relabeling of edge {nb.marked} does not map it onto its class representative")
        cols = rep_index_from_perm(self.basis.rho, ball_map(relab, balls[0], ec.tail_ball))
        rows = rep_index_from_perm(self.basis.rho_prime, ball_map(relab, balls[1], ec.head_ball))
        return kernel[rows[:, None], cols]


def eq4_residual(shared: SharedKernel) -> float:
    """Worst Frobenius residual of the constraint over basis and group."""
    ec = shared.basis.edge_class
    worst = 0.0
    mats = shared.basis.basis_matrices()
    for chi_tail, chi_head in ec.group_restrictions:
        p_mat = rep_matrix(shared.basis.rho, chi_tail)
        q_mat = rep_matrix(shared.basis.rho_prime, chi_head)
        for k in mats:
            worst = max(worst, float(np.sqrt(np.sum((q_mat @ k - k @ p_mat) ** 2))))
    return worst
