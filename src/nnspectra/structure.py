"""Digraph structure of a nonnegative exact matrix.

Irreducibility, strongly connected components with the edges of their
condensation, and float Perron eigendata from one eigendecomposition of
to_float(A); every entry point takes a RationalMatrix A.  The block ordering
built on the components lives in rowsum, next to the normalization that
uses it.
"""

from __future__ import annotations

import numpy as np

from .core import RationalMatrix, to_float
from .errors import CertificationError, DimensionError, DomainError


def adjacency(A: RationalMatrix) -> list:
    """Boolean adjacency rows: edge i -> j iff A.num[i][j] > 0 (A.den > 0)."""
    return [[v > 0 for v in row] for row in A.num]


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


def is_irreducible(A: RationalMatrix) -> bool:
    """True iff the digraph of the nonnegative square RationalMatrix A is
    strongly connected; any other input is refused.

    A 1x1 matrix counts as irreducible even when its entry is zero: it is
    one strongly connected component, like every diagonal block the
    normalization plans with.
    """
    if not isinstance(A, RationalMatrix):
        raise DomainError("digraph structure needs a RationalMatrix")
    if not A.is_square:
        raise DimensionError("digraph structure needs a square matrix")
    if not A.is_nonnegative:
        raise DomainError("matrix has a negative entry")
    return len(strongly_connected_components(adjacency(A))) == 1


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


# ---------------------------------------------------------------------------
# Perron eigendata (float)
# ---------------------------------------------------------------------------


_PERRON_TOL = 1e-12


def perron_eig(arr):
    """(eigenvalues, rho, x) of a nonnegative irreducible array, by one
    np.linalg.eig.

    rho is the eigenvalue with the largest real part: every other eigenvalue
    has modulus at most rho, and those on the spectral circle of an
    imprimitive block have a smaller real part.  x is the absolute value of
    its (real) eigenvector, scaled to max entry 1, and must satisfy
    ||A x - rho x||_inf <= 10 _PERRON_TOL max(|rho|, max |a_ij|), a bound
    that scales with A.
    """
    values, vectors = np.linalg.eig(arr)
    k = int(np.argmax(values.real))
    rho = float(values[k].real)
    x = np.abs(vectors[:, k].real)
    x /= np.max(x)
    residual = float(np.max(np.abs(arr @ x - rho * x)))
    if residual > 10 * _PERRON_TOL * max(abs(rho), float(np.max(np.abs(arr)))):
        raise CertificationError("Perron residual %.3e exceeds tolerance" % residual)
    return values, rho, x


def perron_data(A: RationalMatrix):
    """Float spectral radius and positive right eigenvector, max entry 1, of
    an irreducible nonnegative RationalMatrix: perron_eig of to_float(A)
    after the exact irreducibility check."""
    if not is_irreducible(A):
        raise DomainError("perron_data needs an irreducible matrix")
    _, rho, x = perron_eig(to_float(A).array)
    return rho, x
