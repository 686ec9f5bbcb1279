import copy
import json
import time
from functools import cache

import numpy as np
import pytest

from ngn.cli import _random_relabel, _random_test_graph
from ngn.errors import ValidationError
from ngn.graph_core import ConcreteGraph, GraphIso, automorphism_generators, enumerate_group, from_undirected, validate_iso
from ngn.kernel_solver import (
    EdgeClass,
    SharedKernel,
    classify_edges,
    eq4_residual,
    locate_edge,
    solve_basis,
)
from ngn.neighbourhoods import NeighbourhoodAssignment, edge_neighbourhood, node_neighbourhood, restrict_edge_iso
from ngn.ngn_layer import NgnLayer
from ngn.representations import RepSpec, parse_rep_spec, random_feature, rep_matrix

from helpers import (
    VERSION_1_LAYER,
    class_members,
    cycle_graph,
    find_iso,
    group_average_projector,
    inverse,
    is_identity,
    orbit_labels_from_restrictions,
    path_graph,
    projector_rank,
    random_digraph,
    random_graph,
    random_relabeling,
    saved_layer_text,
)

K1 = NeighbourhoodAssignment(1)
STD = RepSpec.standard(1)
TRIV = RepSpec.trivial(1)


def bowtie():
    """Two triangles sharing the edge (0, 1); marked edge has a mirror."""
    return from_undirected([0, 1, 2, 3], [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])


def class_of(g, p, q):
    key, _, _ = locate_edge(edge_neighbourhood(g, p, q, K1))
    return next(c for c in classify_edges([g], K1) if c.key == key)


def solve_for(g, p, q, rho=STD, rho_prime=STD):
    ec = class_of(g, p, q)
    return ec, solve_basis(ec, rho, rho_prime)


class TestClassify:
    def test_triangle_single_class(self):
        g = cycle_graph(0, 1, 2)
        classes = classify_edges([g], K1)
        assert len(classes) == 1
        assert len(class_members(classes[0], g)) == 6

    def test_path_two_classes(self):
        g = path_graph(0, 1, 2)
        classes = classify_edges([g], K1)
        assert len(classes) == 2
        grouping = {}
        for ec in classes:
            for edge, _ in class_members(ec, g):
                grouping[edge] = ec.key
        assert grouping[(0, 1)] == grouping[(2, 1)]
        assert grouping[(1, 0)] == grouping[(1, 2)]
        assert grouping[(0, 1)] != grouping[(1, 0)]

    def test_empty_corpus(self):
        assert classify_edges([], K1) == []

    def test_transports_are_marked_isos(self):
        rng = np.random.default_rng(0)
        corpus = [random_graph(rng, 8, 0.35) for _ in range(3)]
        members = 0
        for ec in classify_edges(corpus, K1):
            rp, rq = ec.representative.marked
            for g in corpus:
                for edge, transport in class_members(ec, g):
                    assert transport.apply(rp) == edge[0]
                    assert transport.apply(rq) == edge[1]
                    members += 1
        assert members == sum(len(g.edges) for g in corpus)

    def test_relabeled_graph_hits_same_classes(self):
        rng = np.random.default_rng(1)
        g = random_graph(rng, 9, 0.3)
        phi = random_relabeling(rng, g, fresh_ids=True)
        keys_a = {ec.key for ec in classify_edges([g], K1)}
        keys_b = {ec.key for ec in classify_edges([phi.target], K1)}
        assert keys_a == keys_b


class TestSolveBasis:
    def test_isolated_directed_edge_rank_four(self):
        g = ConcreteGraph.build([0, 1], [(0, 1)])
        ec, basis = solve_for(g, 0, 1)
        assert len(ec.group) == 1
        assert basis.dims == (2, 2)
        assert basis.rank == 4

    def test_trivial_reps_rank_one(self):
        ec, basis = solve_for(bowtie(), 0, 1, TRIV, TRIV)
        assert basis.rank == 1

    def test_mirror_constraint_rank_is_orbit_count(self):
        # bowtie marked (0,1): the only nontrivial marked automorphism swaps
        # nodes 2 and 3 on both sides. Entry (u, v) of a 4x4 kernel is fixed
        # iff both u and v are marked nodes: 4 fixed entries, so the entry
        # action has (16 + 4) / 2 = 10 orbits.
        ec, basis = solve_for(bowtie(), 0, 1)
        assert len(ec.group) == 2
        assert basis.rank == 10
        proj = group_average_projector(ec, STD, STD)
        assert projector_rank(proj) == 10

    def test_rank_matches_projector_on_random_classes(self):
        rng = np.random.default_rng(3)
        corpus = [random_graph(rng, int(rng.integers(4, 8)), 0.45) for _ in range(6)]
        classes = classify_edges(corpus, K1)
        checked = 0
        for ec in classes:
            if len(ec.group) > 48:
                continue
            basis = solve_basis(ec, STD, STD)
            proj = group_average_projector(ec, STD, STD)
            assert basis.rank == projector_rank(proj)
            checked += 1
        assert checked >= 5

    def test_basis_orthonormal_and_satisfies_constraint(self):
        ec, basis = solve_for(bowtie(), 0, 1)
        mats = basis.basis_matrices()
        for i, a in enumerate(mats):
            for j, b in enumerate(mats):
                inner = float(np.sum(a * b))
                assert abs(inner - (1.0 if i == j else 0.0)) < 1e-12
        shared = SharedKernel.random(basis, np.random.default_rng(0))
        assert eq4_residual(shared) < 1e-10

    def test_basis_spans_projector_range(self):
        # the orbit basis must span the same space as the full-group oracle,
        # not just have its rank: its own projector equals the group average
        rng = np.random.default_rng(4)
        g = random_graph(rng, 7, 0.5)
        cases = [
            (bowtie(), (0, 1), STD, STD),
            (g, sorted(g.edges)[0], STD, STD),
            (bowtie(), (0, 1), parse_rep_spec("trivial*2+standard*1"),
             parse_rep_spec("standard*1+trivial*1")),
        ]
        for graph, (p, q), rho, rho_prime in cases:
            ec, basis = solve_for(graph, p, q, rho, rho_prime)
            flat = [b.reshape(-1) for b in basis.basis_matrices()]
            own = sum(np.outer(b, b) for b in flat)
            assert np.max(np.abs(own - group_average_projector(ec, rho, rho_prime))) < 1e-12

    def test_large_group_solved_without_enumeration(self):
        # a degree-7 tail whose six other neighbours are interchangeable:
        # 720 marked automorphisms, found from generators alone
        g = from_undirected(range(10), [(0, i) for i in range(1, 8)] + [(1, 8), (8, 9)])
        ec = class_of(g, 0, 1)
        t0 = time.perf_counter()
        basis = solve_basis(ec, STD, STD)
        elapsed = time.perf_counter() - t0
        assert "group" not in ec.__dict__
        assert elapsed < 1.0
        assert len(ec.group) == 720
        assert basis.rank == 9
        assert basis.rank == projector_rank(group_average_projector(ec, STD, STD))
        assert eq4_residual(SharedKernel.random(basis, np.random.default_rng(0))) < 1e-10

    def test_channel_multiplicity_scales_rank(self):
        rho = RepSpec.standard(2)
        rho_prime = RepSpec.standard(3)
        ec, basis = solve_for(bowtie(), 0, 1, rho, rho_prime)
        _, struct_basis = solve_for(bowtie(), 0, 1, STD, STD)
        assert basis.rank == 6 * struct_basis.rank
        proj = group_average_projector(ec, rho, rho_prime)
        assert projector_rank(proj) == basis.rank

    def test_mixed_spec_rank_matches_projector(self):
        rho = RepSpec.trivial(2) + RepSpec.standard(1)
        rho_prime = RepSpec.standard(1) + RepSpec.trivial(1)
        ec, basis = solve_for(bowtie(), 0, 1, rho, rho_prime)
        proj = group_average_projector(ec, rho, rho_prime)
        assert projector_rank(proj) == basis.rank
        d_out, d_in = basis.dims
        assert proj.shape == (d_out * d_in, d_out * d_in)

    def test_bases_equal_the_restricted_subgraph_actions_on_criterion_1(self):
        classes = _criterion_1_classes()
        assert len(classes) > 1000
        for rho in (STD, parse_rep_spec("trivial*2+standard*3")):
            for ec in classes:
                got = [pb.labels for pb in solve_basis(ec, rho, rho).pair_bases]
                want = orbit_labels_from_restrictions(ec, rho, rho)
                assert len(got) == len(want)
                assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_orbits_are_numbered_by_their_first_entry_on_criterion_1(self):
        # a file's weights are read in this order, so it must not move
        for rho in (STD, parse_rep_spec("trivial*2+standard*3")):
            for ec in _criterion_1_classes():
                for pb in solve_basis(ec, rho, rho).pair_bases:
                    labels, first = np.unique(pb.labels.reshape(-1), return_index=True)
                    assert np.array_equal(labels, np.arange(pb.rank))
                    assert np.all(np.diff(first) > 0)


@cache
def _criterion_1_classes() -> tuple[EdgeClass, ...]:
    """The edge classes of criterion 1's graphs, drawn as its loop draws them."""
    rng = np.random.default_rng(101)
    classes = {}
    for _ in range(200):
        g = _random_test_graph(rng)
        _random_relabel(rng, g)
        random_feature(rng, STD, g, K1)
        for ec in classify_edges([g], K1):
            classes.setdefault(ec.key, ec)
    return tuple(classes.values())


class TestConjugatedGenerators:
    """A new class takes its generators from the search that keyed its first
    edge, conjugated onto the representative; they must generate the group
    that a search of the representative itself gives."""

    @staticmethod
    def _classes() -> list[EdgeClass]:
        rng = np.random.default_rng(18)
        corpus = [random_graph(rng, int(rng.integers(4, 10)), rng.uniform(0.2, 0.8)) for _ in range(15)]
        corpus += [random_digraph(rng, int(rng.integers(4, 9)), rng.uniform(0.2, 0.5)) for _ in range(10)]
        return classify_edges(corpus, K1) + list(_criterion_1_classes())

    def test_each_generator_is_a_marked_automorphism_of_the_representative(self):
        for ec in self._classes():
            rep = ec.representative
            assert (ec.aut.graph, ec.aut.marked) == (rep.graph, rep.marked)
            for gen in ec.aut.generators:
                assert validate_iso(gen)
                assert all(gen.apply(m) == m for m in rep.marked)

    def test_group_equals_the_group_of_the_representative_s_own_search(self):
        for ec in self._classes():
            rep = ec.representative
            own = enumerate_group(automorphism_generators(rep.graph, rep.marked))
            assert {chi.mapping for chi in ec.group} == {chi.mapping for chi in own}


class TestAssembly:
    def test_weighted_assembly_matches_basis_matrices(self):
        rng = np.random.default_rng(8)
        rho = RepSpec.trivial(2) + RepSpec.standard(2)
        rho_prime = RepSpec.standard(3)
        _, basis = solve_for(bowtie(), 0, 1, rho, rho_prime)
        shared = SharedKernel.random(basis, rng)
        coeffs = []
        for w, pb in zip(shared.weights, basis.pair_bases):
            for r in range(w.shape[0]):
                for oc in range(pb.c_out):
                    for ic in range(pb.c_in):
                        coeffs.append(w[r, ic, oc])
        expected = sum(c * m for c, m in zip(coeffs, basis.basis_matrices()))
        assert np.allclose(shared.representative_kernel(), expected, atol=1e-12)


class TestRealize:
    def test_zero_weights_realize_zero(self):
        g = cycle_graph(0, 1, 2)
        ec, basis = solve_for(g, 0, 1)
        shared = SharedKernel(basis, [np.zeros((pb.rank, pb.c_in, pb.c_out)) for pb in basis.pair_bases])
        for edge, transport in class_members(ec, g):
            nb = edge_neighbourhood(g, *edge, K1)
            assert np.all(_realize(shared, nb, transport) == 0.0)

    def test_representative_member_unchanged(self):
        ec, basis = solve_for(bowtie(), 0, 1)
        shared = SharedKernel.random(basis, np.random.default_rng(1))
        rep = ec.representative
        ident = GraphIso.identity(rep.graph)
        assert np.array_equal(
            _realize(shared, rep, ident), shared.representative_kernel()
        )
        # transporting along a marked automorphism also fixes the kernel,
        # because the kernel satisfies the class constraint
        auto = ec.aut.generators[0]
        assert not is_identity(auto)
        assert np.allclose(
            _realize(shared, rep, auto),
            shared.representative_kernel(),
            atol=1e-12,
        )

    def test_realized_kernel_lies_in_member_own_solution_space(self):
        # independent per-member solve: transporting the representative kernel
        # must land inside the space solved directly at the member
        rng = np.random.default_rng(5)
        g = random_graph(rng, 7, 0.5)
        classes = classify_edges([g], K1)
        ec = max(classes, key=lambda c: len(c.group))
        shared = SharedKernel.random(ec and solve_basis(ec, STD, STD), rng)
        for edge, transport in class_members(ec, g)[:4]:
            nb = edge_neighbourhood(g, *edge, K1)
            own = EdgeClass(
                key=b"",
                representative=nb,
                assignment=K1,
                aut=automorphism_generators(nb.graph, marked=list(nb.marked)),
            )
            own_basis = solve_basis(own, STD, STD)
            proj = sum(
                np.outer(b.reshape(-1), b.reshape(-1)) for b in own_basis.basis_matrices()
            )
            k = _realize(shared, nb, transport).reshape(-1)
            assert np.allclose(proj @ k, k, atol=1e-10)

    def test_transport_consistency_under_alternate_representative(self):
        # choosing a member itself as representative must span the same
        # realized subspace at every member (projector equality)
        rng = np.random.default_rng(6)
        g = bowtie()
        classes = classify_edges([g], K1)
        ec = next(c for c in classes if (0, 1) in dict(class_members(c, g)))
        members = dict(class_members(ec, g))
        basis = solve_basis(ec, STD, STD)

        member_edge = next(edge for edge in members if edge != (0, 1))
        alt_nb = edge_neighbourhood(g, *member_edge, K1)
        alt = EdgeClass(
            key=ec.key,
            representative=alt_nb,
            assignment=K1,
            aut=automorphism_generators(alt_nb.graph, marked=list(alt_nb.marked)),
        )
        alt_basis = solve_basis(alt, STD, STD)
        assert alt_basis.rank == basis.rank

        probe = edge_neighbourhood(g, 0, 1, K1)
        t_main = members[(0, 1)]
        t_alt = find_iso(alt_nb.graph, probe.graph, pins=list(zip(alt_nb.marked, probe.marked)))
        assert t_alt is not None

        def span_projector(basis_mats, nb, transport, b):
            mats = []
            sk = SharedKernel(b, [np.zeros((pb.rank, pb.c_in, pb.c_out)) for pb in b.pair_bases])
            for idx in range(b.rank):
                flat = np.zeros(b.rank)
                flat[idx] = 1.0
                _set_flat_weights(sk, flat)
                mats.append(_realize(sk, nb, transport).reshape(-1))
            m = np.stack(mats, axis=1)
            q, _ = np.linalg.qr(m)
            return q @ q.T

        p_main = span_projector(None, probe, t_main, basis)
        p_alt = span_projector(None, probe, t_alt, alt_basis)
        assert np.max(np.abs(p_main - p_alt)) < 1e-8


    def test_index_transport_bit_identical_to_dense_conjugation(self):
        rng = np.random.default_rng(9)
        corpus = [random_graph(rng, int(rng.integers(5, 9)), 0.4) for _ in range(3)]
        specs = [parse_rep_spec(t) for t in ("standard*1", "trivial*2+standard*3", "standard*2+trivial*1")]
        checked = 0
        for g in corpus:
            for ec in classify_edges([g], K1):
                for rho, rho_prime in zip(specs, specs[1:] + specs[:1]):
                    shared = SharedKernel.random(solve_basis(ec, rho, rho_prime), rng)
                    k = shared.representative_kernel()
                    for edge, transport in class_members(ec, g):
                        nb = edge_neighbourhood(g, *edge, K1)
                        psi_tail = restrict_edge_iso(transport, ec.representative, nb, "tail", K1)
                        psi_head = restrict_edge_iso(transport, ec.representative, nb, "head", K1)
                        q_mat = rep_matrix(rho_prime, psi_head)
                        dense = q_mat @ k @ rep_matrix(rho, psi_tail).T
                        assert np.array_equal(_realize(shared, nb, transport), dense)
                        checked += 1
        assert checked >= 50

    def test_relabeling_that_is_not_onto_the_representative_raises(self):
        ec, basis = solve_for(bowtie(), 0, 1)
        shared = SharedKernel.random(basis, np.random.default_rng(3))
        nb = edge_neighbourhood(bowtie(), 0, 1, K1)
        _, relab, _ = locate_edge(nb)
        balls = tuple(node_neighbourhood(nb.graph, end, K1).graph.nodes for end in nb.marked)
        kernel = shared.representative_kernel()
        assert shared.realize_from_transport(nb, relab, balls, kernel).shape == basis.dims
        for bad in ({**relab, 2: relab[3]}, {u: pos + 1 for u, pos in relab.items()}):
            with pytest.raises(ValidationError):
                shared.realize_from_transport(nb, bad, balls, kernel)


def _realize(shared: SharedKernel, nb, transport: GraphIso) -> np.ndarray:
    """``realize_from_transport`` for a transport from the representative
    onto ``nb``: its inverse is the relabeling the method takes."""
    balls = tuple(node_neighbourhood(nb.graph, end, K1).graph.nodes for end in nb.marked)
    return shared.realize_from_transport(nb, inverse(transport).map, balls, shared.representative_kernel())


def _set_flat_weights(shared: SharedKernel, flat: np.ndarray) -> None:
    at = 0
    for w in shared.weights:
        n = w.size
        w[...] = flat[at : at + n].reshape(w.shape)
        at += n


def _reverse_ids(entry):
    """Renumber a class entry's representative v -> n - 1 - v: the same
    class under its key, but no longer in canonical position."""
    n = len(entry["nodes"])
    entry.update(edges=[[n - 1 - i, n - 1 - j] for i, j in entry["edges"]], marked=[n - 1 - v for v in entry["marked"]])


class TestCache:
    """The solved classes as the layer file keeps them: each entry is a
    class's key, representative and weights, and its basis is solved again
    from the representative when the file is read."""

    def test_round_trip(self):
        # through JSON text, ranks, orbit labels and representative kernels
        # come back bit for bit, for a rep of one part and one of several
        rng = np.random.default_rng(7)
        g = random_graph(rng, 7, 0.4)
        classes = classify_edges([g], K1)
        for rho in (RepSpec.standard(2), parse_rep_spec("trivial*2+standard*1")):
            layer = NgnLayer(rho=rho, rho_prime=STD, assignment=K1)
            for ec in classes:
                layer.table[ec.key] = SharedKernel.random(solve_basis(ec, rho, STD), rng)
            payload = layer.to_dict()
            assert all("generators" not in e and "pair_bases" not in e for e in payload["classes"])
            loaded = NgnLayer.from_dict(json.loads(json.dumps(payload)))
            assert list(loaded.table) == list(layer.table)
            for key, sk in layer.table.items():
                got = loaded.table[key]
                assert got.basis.rank == sk.basis.rank
                for a, b in zip(got.basis.pair_bases, sk.basis.pair_bases, strict=True):
                    assert a.labels.dtype == b.labels.dtype and np.array_equal(a.labels, b.labels)
                assert got.representative_kernel().tobytes() == sk.representative_kernel().tobytes()

    def test_version_1_cache_raises_validation_error(self):
        # version 1 kept the classes in a cache of their own, which stored
        # each class's generators and dense bases; in place of a layer's
        # list of classes it is refused
        cache = json.loads(VERSION_1_LAYER)["classes"]
        assert cache["version"] == 1 and "pair_bases" in cache["entries"][0]
        payload = json.loads(saved_layer_text())
        payload["classes"] = cache
        with pytest.raises(ValidationError, match="classes must be a list"):
            NgnLayer.from_dict(payload)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda d, e: d.pop("rho"),  # entries are read against the layer's rho
            lambda d, e: e["weights"][0].pop(),
            lambda d, e: e["weights"].pop(),
            lambda d, e: e.update(key="not hex"),
            lambda d, e: e.update(key=e["key"][:-2] + ("01" if e["key"][-2:] == "00" else "00")),
            lambda d, e: e.update(marked=e["marked"][:1] * 2),
            lambda d, e: _reverse_ids(e),
            lambda d, e: d["classes"].append(copy.deepcopy(e)),
        ],
        ids=[
            "no rho",
            "weights short of a row",
            "weights short of a pair",
            "key not hex",
            "key of another class",
            "marks not an edge",
            "representative off its canonical labeling",
            "duplicate key",
        ],
    )
    def test_malformed_entry_raises_validation_error(self, corrupt):
        payload = json.loads(saved_layer_text())
        corrupt(payload, payload["classes"][0])
        with pytest.raises(ValidationError):
            NgnLayer.from_dict(payload)
