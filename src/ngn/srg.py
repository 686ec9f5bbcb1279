"""Constructible strongly regular graphs with parameters (25, 12, 5, 6).

The quadratic-residue graph over the 25-element field and Latin-square
graphs of order 5 (cells adjacent when they share a row, column, or symbol)
all realize these parameters. :func:`builtin_srg_25` writes down the three
pairwise non-isomorphic graphs that these constructions and their
complements give, with no search and no isomorphism test; they are the
expressiveness suite's strongly regular graphs when no external file is
given, equal in degree and triangle count at every node.
"""

from __future__ import annotations

from .graph_core import ConcreteGraph, from_undirected

_P = 5  # base prime; the field has 25 elements represented as a + b*x

# a reduced Latin square of order 5 outside the cyclic square's main class
_SQUARE = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]]


def _gf25_mul(u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
    # multiplication modulo x^2 + x + 2 (irreducible over F5): x^2 = 4x + 3
    a, b = u
    c, d = v
    return ((a * c + 3 * b * d) % _P, (a * d + b * c + 4 * b * d) % _P)


def paley_25() -> ConcreteGraph:
    """Quadratic-residue graph on the field with 25 elements."""
    elements = [(a, b) for a in range(_P) for b in range(_P)]
    squares = {_gf25_mul(e, e) for e in elements if e != (0, 0)}
    index = {e: i for i, e in enumerate(elements)}
    pairs = []
    for i, u in enumerate(elements):
        for v in elements[i + 1 :]:
            diff = ((u[0] - v[0]) % _P, (u[1] - v[1]) % _P)
            if diff in squares:
                pairs.append((index[u], index[v]))
    return from_undirected(range(25), pairs)


def latin_square_graph(square: list[list[int]]) -> ConcreteGraph:
    """Cells as nodes; adjacent when sharing a row, column, or symbol."""
    n = len(square)
    cells = [(r, c) for r in range(n) for c in range(n)]
    pairs = []
    for i, (r1, c1) in enumerate(cells):
        for r2, c2 in cells[i + 1 :]:
            if r1 == r2 or c1 == c2 or square[r1][c1] == square[r2][c2]:
                pairs.append((r1 * n + c1, r2 * n + c2))
    return from_undirected(range(n * n), pairs)


def complement(g: ConcreteGraph) -> ConcreteGraph:
    pairs = []
    for i, u in enumerate(g.nodes):
        for v in g.nodes[i + 1 :]:
            if (u, v) not in g.edges:
                pairs.append((u, v))
    return from_undirected(g.nodes, pairs)


def srg_parameters(g: ConcreteGraph) -> tuple[int, int, int, int] | None:
    """(n, k, lambda, mu) if strongly regular, else None."""
    degs = {len(g.und_nbrs[v]) for v in g.nodes}
    if len(degs) != 1:
        return None
    k = degs.pop()
    lam, mu = None, None
    for i, u in enumerate(g.nodes):
        for v in g.nodes[i + 1 :]:
            common = len(g.und_nbrs[u] & g.und_nbrs[v])
            if (u, v) in g.edges:
                if lam is None:
                    lam = common
                elif lam != common:
                    return None
            else:
                if mu is None:
                    mu = common
                elif mu != common:
                    return None
    return (g.n, k, lam if lam is not None else 0, mu if mu is not None else 0)


def builtin_srg_25() -> list[ConcreteGraph]:
    """The three pairwise non-isomorphic SRG(25, 12, 5, 6) that the closed
    constructions give: the quadratic-residue graph, the Latin-square graph
    of ``_SQUARE`` and that graph's complement, in this order.

    A Latin-square graph depends only on its square's main class, and order
    5 has two: the cyclic square's and ``_SQUARE``'s (McKay, Meynert &
    Myrvold, *Small Latin squares, quasigroups and loops*, 2007). The cyclic
    square's graph is isomorphic to the quadratic-residue graph, which is
    self-complementary, so every other candidate repeats one of these three.
    """
    latin = latin_square_graph(_SQUARE)
    graphs = [paley_25(), latin, complement(latin)]
    for g in graphs:
        assert srg_parameters(g) == (25, 12, 5, 6), "construction broke SRG parameters"
    return graphs
