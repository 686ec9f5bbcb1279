"""Benchmark corpus ingestion, synthetic suites, and initial node features.

Supports the plain-text benchmark distribution format (one global edge list
plus per-node graph indicators and labels) and the compact ASCII graph6
format for undirected graphs up to 62 nodes. Loaded graphs are symmetrized
directed edge sets; per-graph node ids are remapped to 0..n-1 in ascending
order of their global ids.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import ContractError, GenerationError, ParseError
from .graph_core import ConcreteGraph, from_undirected, unique_up_to_isomorphism


@dataclass
class GraphDataset:
    name: str
    graphs: list[ConcreteGraph]
    labels: np.ndarray  # class indices 0..n_classes-1
    n_classes: int
    node_labels: list[list[int]] | None = None  # per graph, per local node id

    def __post_init__(self):
        if len(self.labels) != len(self.graphs):
            raise ContractError("one label per graph required")
        if self.node_labels is not None:
            for g, labs in zip(self.graphs, self.node_labels):
                if len(labs) != g.n:
                    raise ContractError("node labels must cover every node")


# ---------------------------------------------------------------------------
# TU-style text format
# ---------------------------------------------------------------------------


def _read_lines(path: Path) -> list[str]:
    """The lines of a UTF-8 text file; a missing file or a byte that is not
    UTF-8 raises ParseError, the latter with its line number."""
    if not path.exists():
        raise ParseError(f"missing file {path.name}")
    data = path.read_bytes()
    try:
        return data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path.name} is not UTF-8 text: {exc.reason}", data.count(b"\n", 0, exc.start) + 1) from None


def _read_ints(path: Path, what: str) -> list[int]:
    """The integers of a file holding one per line; blank lines are skipped,
    and any other line raises ParseError with its line number."""
    values = []
    for ln, line in enumerate(_read_lines(path), 1):
        line = line.strip()
        if not line:
            continue
        try:
            values.append(int(line))
        except ValueError:
            raise ParseError(f"bad {what} {line!r}", ln) from None
    return values


def load_tu(directory: str | Path) -> GraphDataset:
    """Load a dataset directory of the standard four/five text files.

    Expects ``<DS>_A.txt`` (comma-separated 1-indexed global node id pairs),
    ``<DS>_graph_indicator.txt``, ``<DS>_graph_labels.txt`` and optionally
    ``<DS>_node_labels.txt``.
    """
    directory = Path(directory)
    a_files = sorted(directory.glob("*_A.txt"))
    if not a_files:
        raise ParseError(f"no *_A.txt file in {directory}")
    name = a_files[0].name[: -len("_A.txt")]

    indicator = _read_ints(directory / f"{name}_graph_indicator.txt", "graph indicator")
    if not indicator:
        raise ParseError(f"{name}_graph_indicator.txt lists no node")
    n_graphs = max(indicator)
    if n_graphs > len(indicator):  # checked before anything is sized by n_graphs
        raise ParseError(f"graph indicator {n_graphs} for {len(indicator)} nodes leaves a graph without nodes")

    raw_labels = _read_ints(directory / f"{name}_graph_labels.txt", "graph label")
    if len(raw_labels) != n_graphs:
        raise ParseError(
            f"{len(raw_labels)} graph labels for {n_graphs} graphs", len(raw_labels)
        )

    # global node id -> (graph index, local id); locals remapped to 0..n-1
    node_of: dict[int, tuple[int, int]] = {}
    counts = [0] * n_graphs
    for global_id, graph_id in enumerate(indicator, 1):
        gi = graph_id - 1
        if not (0 <= gi < n_graphs):
            raise ParseError(f"graph indicator {graph_id} out of range", global_id)
        node_of[global_id] = (gi, counts[gi])
        counts[gi] += 1
    if 0 in counts:
        raise ParseError(f"graph {counts.index(0) + 1} has no node in the graph indicator")

    edges: list[list[tuple[int, int]]] = [[] for _ in range(n_graphs)]
    for ln, line in enumerate(_read_lines(directory / f"{name}_A.txt"), 1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"expected 'i, j', got {line!r}", ln)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer edge endpoint in {line!r}", ln) from None
        if u not in node_of or v not in node_of:
            raise ParseError(f"edge ({u}, {v}) references unknown node", ln)
        if u == v:
            raise ParseError(f"self-loop ({u}, {v}) rejected", ln)
        (gu, lu), (gv, lv) = node_of[u], node_of[v]
        if gu != gv:
            raise ParseError(f"edge ({u}, {v}) crosses graphs", ln)
        edges[gu].append((lu, lv))

    node_labels: list[list[int]] | None = None
    labels_path = directory / f"{name}_node_labels.txt"
    if labels_path.exists():
        node_labels = [[0] * c for c in counts]
        flat = _read_ints(labels_path, "node label")
        if len(flat) != len(indicator):
            raise ParseError(f"{len(flat)} node labels for {len(indicator)} nodes", len(flat))
        for global_id, lab in enumerate(flat, 1):
            gi, li = node_of[global_id]
            node_labels[gi][li] = lab

    graphs = [from_undirected(range(n), pairs) for n, pairs in zip(counts, edges)]

    classes = sorted(set(raw_labels))
    class_index = {c: i for i, c in enumerate(classes)}
    return GraphDataset(
        name=name,
        graphs=graphs,
        labels=np.array([class_index[c] for c in raw_labels], dtype=np.intp),
        n_classes=len(classes),
        node_labels=node_labels,
    )


def write_tu(ds: GraphDataset, directory: str | Path) -> None:
    """Write a dataset in the same text format ``load_tu`` reads."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    a_lines, ind_lines, node_lab_lines = [], [], []
    offset = 0
    for gi, g in enumerate(ds.graphs):
        order = {u: i for i, u in enumerate(g.nodes)}
        for u, v in sorted(g.edges):
            a_lines.append(f"{offset + order[u] + 1}, {offset + order[v] + 1}")
        ind_lines.extend([str(gi + 1)] * g.n)
        if ds.node_labels is not None:
            node_lab_lines.extend(str(l) for l in ds.node_labels[gi])
        offset += g.n
    (directory / f"{ds.name}_A.txt").write_text("\n".join(a_lines) + "\n")
    (directory / f"{ds.name}_graph_indicator.txt").write_text("\n".join(ind_lines) + "\n")
    (directory / f"{ds.name}_graph_labels.txt").write_text(
        "\n".join(str(int(l)) for l in ds.labels) + "\n"
    )
    if ds.node_labels is not None:
        (directory / f"{ds.name}_node_labels.txt").write_text("\n".join(node_lab_lines) + "\n")


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------


def _graph6_parse_line(line: str, ln: int) -> ConcreteGraph:
    if line.startswith(">>graph6<<"):
        line = line[len(">>graph6<<") :]
    if not line:
        raise ParseError("empty graph6 line", ln)
    n = ord(line[0]) - 63
    if not (0 <= n <= 62):
        raise ParseError(f"unsupported graph6 order byte {line[0]!r} (long form?)", ln)
    need_bits = n * (n - 1) // 2
    need_chars = (need_bits + 5) // 6
    data = line[1:]
    if len(data) != need_chars:
        raise ParseError(f"graph6 record of order {n} needs {need_chars} chars after the order byte, got {len(data)}", ln)
    bits = []
    for ch in data:
        val = ord(ch) - 63
        if not (0 <= val < 64):
            raise ParseError(f"invalid graph6 character {ch!r}", ln)
        bits.extend((val >> shift) & 1 for shift in range(5, -1, -1))
    if any(bits[need_bits:]):
        raise ParseError("graph6 padding bits must be zero", ln)
    pairs = []
    at = 0
    for j in range(1, n):
        for i in range(j):
            if bits[at]:
                pairs.append((i, j))
            at += 1
    return from_undirected(range(n), pairs)


def load_graph6(path: str | Path) -> list[ConcreteGraph]:
    """Parse an ASCII graph6 file (short form, n <= 62) into symmetrized graphs.

    A file without a graph, a record with characters left over and a
    nonzero padding bit raise ParseError."""
    out = []
    for ln, line in enumerate(_read_lines(Path(path)), 1):
        line = line.strip()
        if line:
            out.append(_graph6_parse_line(line, ln))
    if not out:
        raise ParseError(f"no graph6 record in {Path(path).name}")
    return out


def write_graph6(graphs: list[ConcreteGraph], path: str | Path) -> None:
    lines = []
    for g in graphs:
        n = g.n
        if n > 62:
            raise ContractError("graph6 short form supports at most 62 nodes")
        order = {u: i for i, u in enumerate(g.nodes)}
        bits = []
        for j in range(1, n):
            for i in range(j):
                u, v = g.nodes[i], g.nodes[j]
                bits.append(1 if (u, v) in g.edges or (v, u) in g.edges else 0)
        while len(bits) % 6:
            bits.append(0)
        chars = [chr(n + 63)]
        for at in range(0, len(bits), 6):
            val = 0
            for b in bits[at : at + 6]:
                val = (val << 1) | b
            chars.append(chr(val + 63))
        lines.append("".join(chars))
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Initial features
# ---------------------------------------------------------------------------


def degree_features(graphs: list[ConcreteGraph]) -> list[np.ndarray]:
    """Per graph, an (n, 1) array: one row per node (ascending ids) holding
    its degree, edge direction ignored."""
    return [np.array([len(g.und_nbrs[u]) for u in g.nodes], dtype=float).reshape(g.n, 1) for g in graphs]


def initial_features(ds: GraphDataset, mode: str) -> list[np.ndarray]:
    """Per-node feature rows: one-hot node labels, or the vertex degree."""
    if mode == "degree":
        return degree_features(ds.graphs)
    if mode == "onehot-label":
        if ds.node_labels is None:
            raise ContractError("dataset has no node labels; one-hot features unavailable")
        alphabet = sorted({l for labs in ds.node_labels for l in labs})
        index = {l: i for i, l in enumerate(alphabet)}
        out = []
        for g, labs in zip(ds.graphs, ds.node_labels):
            rows = np.zeros((g.n, len(alphabet)))
            for i in range(g.n):
                rows[i, index[labs[i]]] = 1.0
            out.append(rows)
        return out
    raise ContractError(f"unknown feature mode {mode!r}")


# ---------------------------------------------------------------------------
# Synthetic suites
# ---------------------------------------------------------------------------

SUITE_NODES = 25
SUITE_DEGREE = 6
SUITE_SIZE = 100
SUITE_DRAWS = 2000  # draws a suite may take before it gives up (GenerationError)


def _gnp(rng: np.random.Generator, n: int, p: float) -> ConcreteGraph:
    pairs = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return from_undirected(range(n), pairs)


def _is_regular(g: ConcreteGraph) -> bool:
    degs = {len(g.und_nbrs[v]) for v in g.nodes}
    return len(degs) == 1


def _random_regular(rng: np.random.Generator, n: int, d: int, swaps: int) -> ConcreteGraph:
    """Edge-swap walk from a circulant start; preserves d-regularity."""
    edges = {frozenset((i, (i + s) % n)) for i in range(n) for s in range(1, d // 2 + 1)}
    edge_list = [tuple(sorted(e)) for e in sorted(edges, key=sorted)]
    edge_set = set(map(frozenset, edge_list))
    done = 0
    attempts = 0
    while done < swaps:
        attempts += 1
        if attempts > 100 * swaps:
            raise GenerationError("edge-swap walk failed to mix")
        i, j = rng.integers(len(edge_list)), rng.integers(len(edge_list))
        if i == j:
            continue
        (a, b), (c, d2) = edge_list[i], edge_list[j]
        if rng.random() < 0.5:
            c, d2 = d2, c
        # rewire (a,b),(c,d2) -> (a,c),(b,d2)
        if len({a, b, c, d2}) < 4:
            continue
        new1, new2 = frozenset((a, c)), frozenset((b, d2))
        if new1 in edge_set or new2 in edge_set:
            continue
        edge_set.discard(frozenset((a, b)))
        edge_set.discard(frozenset((c, d2)))
        edge_set.add(new1)
        edge_set.add(new2)
        edge_list[i] = tuple(sorted((a, c)))
        edge_list[j] = tuple(sorted((b, d2)))
        done += 1
    return from_undirected(range(n), edge_list)


def _distinct(draws: Iterable[ConcreteGraph], what: str) -> list[ConcreteGraph]:
    """The first SUITE_SIZE pairwise non-isomorphic graphs of ``draws``,
    which are drawn no further; GenerationError if they run out first."""
    graphs = list(islice(unique_up_to_isomorphism(draws), SUITE_SIZE))
    if len(graphs) < SUITE_SIZE:
        raise GenerationError(f"could not generate enough distinct {what} graphs")
    return graphs


def synth_suites(seed: int, srg_graphs: list[ConcreteGraph] | None = None) -> dict[str, list[ConcreteGraph]]:
    """The four expressiveness suites.

    random: non-isomorphic non-regular G(25, p) with mean degree 6;
    regular: non-isomorphic 6-regular graphs on 25 nodes;
    strongly_regular: caller-provided graphs, or the built-in constructions;
    isomorphic: 100 relabelings of one random graph.
    """
    rng = np.random.default_rng(seed)
    p = SUITE_DEGREE / (SUITE_NODES - 1)
    gnp_draws = (_gnp(rng, SUITE_NODES, p) for _ in range(SUITE_DRAWS))
    random_suite = _distinct((g for g in gnp_draws if not _is_regular(g)), "non-regular")
    regular_draws = (_random_regular(rng, SUITE_NODES, SUITE_DEGREE, swaps=150) for _ in range(SUITE_DRAWS))
    regular_suite = _distinct(regular_draws, "regular")

    if srg_graphs is None:
        from .srg import builtin_srg_25

        srg_graphs = builtin_srg_25()

    base = _gnp(rng, SUITE_NODES, p)
    iso_suite = []
    for _ in range(SUITE_SIZE):
        perm = dict(zip(base.nodes, (int(x) for x in rng.permutation(SUITE_NODES))))
        iso_suite.append(base.relabel(perm))

    return {
        "random": random_suite,
        "regular": regular_suite,
        "strongly_regular": list(srg_graphs),
        "isomorphic": iso_suite,
    }


# ---------------------------------------------------------------------------
# Cross-validation folds
# ---------------------------------------------------------------------------


def ten_fold_split(ds: GraphDataset, seed: int) -> list[np.ndarray]:
    """Ten folds, stratified by label, deterministic per seed."""
    if len(ds.graphs) < 10:
        raise ContractError("ten-fold split needs at least 10 graphs")
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(10)]
    for c in range(ds.n_classes):
        members = np.flatnonzero(ds.labels == c)
        if len(members) < 10:
            warnings.warn(
                f"class {c} has only {len(members)} graphs; stratification degenerates"
            )
        members = members[rng.permutation(len(members))]
        for i, gi in enumerate(members):
            folds[i % 10].append(int(gi))
    return [np.array(sorted(f), dtype=np.intp) for f in folds]
