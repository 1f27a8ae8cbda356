"""Digraph structure of a nonnegative matrix.

Irreducibility, Frobenius normal form (block lower triangular with
irreducible or 1x1-zero diagonal blocks), and Perron eigendata via power
iteration.  The block ordering is deterministic: among valid topological
orders the block containing the Perron root is placed as early as possible,
then blocks with couplings, then fully isolated blocks, ties broken by
smallest original vertex index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FloatMatrix, RationalMatrix, permutation_matrix, to_float
from .errors import DimensionError, DomainError, IterationError


def _check_nonnegative_square(A):
    if not A.is_square:
        raise DimensionError("digraph structure needs a square matrix")
    if not A.is_nonnegative:
        raise DomainError("matrix has a negative entry")


def adjacency(A) -> list:
    """Boolean adjacency rows: edge i -> j iff A[i][j] > 0."""
    if isinstance(A, RationalMatrix):
        return [[v > 0 for v in row] for row in A.entries()]
    return [[bool(x > 0) for x in row] for row in A.array.tolist()]


def strongly_connected_components(adj) -> list:
    """SCCs by iterative Tarjan; deterministic for a fixed adjacency.

    Components are returned in reverse topological order of the
    condensation when edges are read as "row couples into column"; each
    component lists its vertices in increasing order.
    """
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    components = []
    counter = [0]

    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter[0]
                counter[0] += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for w in range(pi, n):
                if not adj[v][w]:
                    continue
                if index[w] == -1:
                    work[-1] = (v, w + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                components.append(sorted(comp))
    return components


def is_irreducible(A) -> bool:
    """True iff the adjacency digraph is strongly connected.

    A 1x1 matrix counts as irreducible even when its entry is zero, so the
    normal form's diagonal-block test ("irreducible or 1x1 zero") is uniform.
    """
    _check_nonnegative_square(A)
    n = A.rows
    if n == 1:
        return True
    return len(strongly_connected_components(adjacency(A))) == 1


@dataclass(frozen=True)
class FrobeniusForm:
    """Permutation data bringing a nonnegative matrix to block lower triangular form."""

    permutation: tuple  # position -> original index
    block_ranges: tuple  # (start, stop) ranges in permuted coordinates
    diag_blocks: tuple
    is_block_lower_triangular: bool
    permuted: RationalMatrix

    @property
    def block_count(self) -> int:
        return len(self.block_ranges)


def condensation_edges(adj, components):
    """Set of (u, w) block edges u -> w, u != w, from vertex-level adjacency."""
    comp_of = {}
    for ci, comp in enumerate(components):
        for v in comp:
            comp_of[v] = ci
    edges = set()
    n = len(adj)
    for i in range(n):
        for j in range(n):
            if adj[i][j] and comp_of[i] != comp_of[j]:
                edges.add((comp_of[i], comp_of[j]))
    return edges


def _components(A):
    """(strongly connected components, condensation edges) of A's digraph."""
    adj = adjacency(A)
    comps = strongly_connected_components(adj)
    return comps, condensation_edges(adj, comps)


def _perron_component(A, components) -> int:
    """Index of the component with the largest spectral radius (float estimate).

    Radii within 1e-9 * max(1, rho) of the largest count as tied; the lowest
    index wins.
    """
    arr = to_float(A).array if isinstance(A, RationalMatrix) else A.array
    radii = [
        float(np.max(np.abs(np.linalg.eigvals(arr[np.ix_(comp, comp)]))))
        for comp in components
    ]
    rho = max(radii)
    return min(ci for ci, r in enumerate(radii) if r >= rho - 1e-9 * max(1.0, rho))


def _placement_order(members, edges, key) -> list:
    """Order the components `members` so that each comes after every member it
    couples into (edge u -> w places w first); among the ready ones the
    smallest key goes next."""
    targets = {u: {w for x, w in edges if x == u and w in members} for u in members}
    order = []
    placed = set()
    while len(order) < len(members):
        nxt = min((u for u in members if u not in placed and targets[u] <= placed), key=key)
        order.append(nxt)
        placed.add(nxt)
    return order


def frobenius_normal_form(A: RationalMatrix) -> FrobeniusForm:
    """Permute A to block lower triangular form with irreducible diagonal blocks.

    Valid orders place every coupling target before its source; among those,
    priority goes to the component holding the Perron root, then components
    that touch any coupling, then fully isolated components; ties fall back
    to the smallest original vertex index.
    """
    _check_nonnegative_square(A)
    comps, edges = _components(A)
    perron_comp = _perron_component(A, comps)
    touched = set()
    for u, w in edges:
        touched.add(u)
        touched.add(w)

    def priority(ci):
        if ci == perron_comp:
            cls = 0
        elif ci in touched:
            cls = 1
        else:
            cls = 2
        return (cls, comps[ci][0])

    perm = []
    ranges = []
    for ci in _placement_order(set(range(len(comps))), edges, priority):
        start = len(perm)
        perm.extend(comps[ci])
        ranges.append((start, len(perm)))
    P = permutation_matrix(perm)
    permuted = P @ A @ P.transpose()
    blocks = tuple(
        permuted.submatrix(range(a, b), range(a, b)) for a, b in ranges
    )
    lower = all(
        permuted[i, j] == 0
        for bi, (a, b) in enumerate(ranges)
        for i in range(a, b)
        for j in range(b, permuted.cols)
    )
    return FrobeniusForm(
        permutation=tuple(perm),
        block_ranges=tuple(ranges),
        diag_blocks=blocks,
        is_block_lower_triangular=lower,
        permuted=permuted,
    )


# ---------------------------------------------------------------------------
# Perron eigendata (float)
# ---------------------------------------------------------------------------


def perron_data(A: FloatMatrix, tol: float = 1e-12, max_iter: int = 100000):
    """Spectral radius and positive right eigenvector of an irreducible matrix.

    Power iteration runs on A + I to defeat period-2 oscillation on
    bipartite patterns; rho(A + I) = rho(A) + 1 with the same eigenvector.
    The vector is normalized to max entry 1; Collatz-Wielandt ratios bound
    the convergence test and the final residual satisfies
    ||A x - rho x||_inf <= tol * max(1, rho).
    """
    if isinstance(A, RationalMatrix):
        A = to_float(A)
    _check_nonnegative_square(A)
    if not is_irreducible(A):
        raise DomainError("perron_data needs an irreducible matrix")
    n = A.rows
    arr = A.array
    shifted = arr + np.eye(n)
    x = np.ones(n)
    rho_shift = None
    for _ in range(max_iter):
        y = shifted @ x
        ratios = y / x
        lo, hi = float(np.min(ratios)), float(np.max(ratios))
        x = y / np.max(y)
        if hi - lo <= tol * max(1.0, hi):
            rho_shift = (lo + hi) / 2.0
            break
    if rho_shift is None:
        raise IterationError("power iteration did not converge in %d steps" % max_iter)
    rho = rho_shift - 1.0
    residual = float(np.max(np.abs(arr @ x - rho * x)))
    if residual > 10 * tol * max(1.0, abs(rho)):
        raise IterationError("residual %.3e exceeds tolerance" % residual)
    return rho, x
