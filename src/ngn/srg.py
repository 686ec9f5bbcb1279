"""Constructible strongly regular graphs with parameters (25, 12, 5, 6).

The quadratic-residue graph over the 25-element field and Latin-square
graphs of order 5 (cells adjacent when they share a row, column, or symbol)
all realize these parameters; together with complements they provide a
built-in set of pairwise non-isomorphic, mutually indistinguishable-by-
degree graphs for the expressiveness suite when no external file is given.
"""

from __future__ import annotations

from .graph_core import ConcreteGraph, from_undirected, unique_up_to_isomorphism

_P = 5  # base prime; the field has 25 elements represented as a + b*x


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


def _reduced_latin_squares(n: int = 5) -> list[list[list[int]]]:
    """All Latin squares of order n with first row and column 0..n-1."""
    square = [[-1] * n for _ in range(n)]
    square[0] = list(range(n))
    for r in range(1, n):
        square[r][0] = r
    out: list[list[list[int]]] = []

    def fill(r: int, c: int) -> None:
        if r == n:
            out.append([row[:] for row in square])
            return
        nr, nc = (r, c + 1) if c + 1 < n else (r + 1, 1)
        if square[r][c] != -1:
            fill(nr, nc)
            return
        used = {square[r][j] for j in range(n) if square[r][j] != -1}
        used |= {square[i][c] for i in range(n) if square[i][c] != -1}
        for v in range(n):
            if v not in used:
                square[r][c] = v
                fill(nr, nc)
                square[r][c] = -1

    fill(1, 1)
    return out


def _intercalates(square: list[list[int]]) -> int:
    n = len(square)
    count = 0
    for r1 in range(n):
        for r2 in range(r1 + 1, n):
            for c1 in range(n):
                for c2 in range(c1 + 1, n):
                    if square[r1][c1] == square[r2][c2] and square[r1][c2] == square[r2][c1]:
                        count += 1
    return count


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
    """Pairwise non-isomorphic SRG(25, 12, 5, 6) from closed constructions.

    Candidates: the quadratic-residue graph, one Latin-square graph per
    intercalate-count bucket of the reduced squares, and all complements.
    Deduplicated up to isomorphism.
    """
    candidates = [paley_25()]
    buckets: dict[int, list[list[int]]] = {}
    for square in _reduced_latin_squares(5):
        buckets.setdefault(_intercalates(square), square)
    for square in buckets.values():
        candidates.append(latin_square_graph(square))
    candidates.extend([complement(g) for g in list(candidates)])

    for g in candidates:
        assert srg_parameters(g) == (25, 12, 5, 6), "construction broke SRG parameters"
    return list(unique_up_to_isomorphism(candidates))
