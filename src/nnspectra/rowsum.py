"""Similarity transform of a nonnegative matrix into constant-row-sum form.

For a nonnegative matrix with a *simple* Perron root lambda1 this produces a
nonnegative B with every row summing to lambda1 and an explicit similarity
S with S^-1 A S = B (exact over the rationals whenever the Perron data is
rational).  The reduction walks the block structure:

  * an irreducible matrix is diagonally scaled by its positive eigenvector;
  * a block that couples into the already-normalized part is absorbed by a
    lift through the solution y of (lambda1 I - A2) y = A3 e;
  * a fully decoupled block is first coupled by an explicit shear built
    from a left eigenvector, then absorbed by the same lift.

Two documented extensions widen the reducible layouts accepted beyond the
plain chain-plus-isolated picture: mutually decoupled *clusters* of blocks
are absorbed whole (after a scaling that pushes all their row sums strictly
below lambda1), and layouts whose Perron block feeds earlier blocks are
handled through an exact similarity with the transpose.  The simple-root
hypothesis cannot be dropped: [[1,0],[1,1]] has no such B.

Exact and float mode run the same absorb loop; a small backend class
supplies the arithmetic that differs between Fraction and float64.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    FloatMatrix,
    RationalMatrix,
    _integer_row,
    char_poly,
    determinant,
    format_rational,
    kernel,
    matrix_to_json,
    poly_eval,
    rat,
    solve,
    synthetic_div,
    to_float,
)
from .errors import (
    CertificationError,
    CouplingError,
    DimensionError,
    DomainError,
    ModeError,
    PerronNotSimple,
    SingularMatrixError,
    SpectraError,
    SpectralDominanceError,
    UnsupportedLayoutError,
)
from .structure import (
    _perron_component,
    _placement_order,
    adjacency,
    condensation_edges,
    is_irreducible,
    perron_data,
    strongly_connected_components,
)


@dataclass(frozen=True)
class RowSumStep:
    kind: str
    detail: dict

    def to_json(self):
        return {"kind": self.kind, "detail": self.detail}


@dataclass
class RowSumResult:
    B: object
    S: object
    transcript: list
    mode: str
    lam: object
    factors: list = None  # similarity factors, in order; their product is S

    def to_json(self):
        if self.mode == "exact":
            return {
                "schema": 1,
                "mode": self.mode,
                "lambda": format_rational(self.lam),
                "B": matrix_to_json(self.B),
                "S": matrix_to_json(self.S),
                "transcript": [s.to_json() for s in self.transcript],
            }
        return {
            "schema": 1,
            "mode": self.mode,
            "lambda": repr(float(self.lam)),
            "B": [[repr(float(v)) for v in row] for row in self.B.array.tolist()],
            "S": [[repr(float(v)) for v in row] for row in self.S.array.tolist()],
            "transcript": [s.to_json() for s in self.transcript],
        }


def constant_row_sum_value(A: RationalMatrix):
    """The common row sum when A is in CS form, else None."""
    sums = A.row_sums()
    return sums[0] if all(s == sums[0] for s in sums) else None


# ---------------------------------------------------------------------------
# the two published building blocks
# ---------------------------------------------------------------------------


def lemma1_lift(A1: RationalMatrix, A2: RationalMatrix, A3: RationalMatrix):
    """Absorb a coupled block: [[A1,0],[A3,A2]] -> positive eigenvector and CS form.

    A1 must be in CS form (row sum lambda1), A2 irreducible nonnegative with
    spectral radius strictly below lambda1, A3 nonzero nonnegative.  Returns
    (x, B) where x = [e; y] is a positive eigenvector of the block matrix at
    lambda1 and B = [[A1, 0], [Y^-1 A3, Y^-1 A2 Y]] is nonnegative in CS form.
    """
    lam = constant_row_sum_value(A1)
    if lam is None:
        raise DomainError("A1 is not in constant-row-sum form")
    if not (A1.is_nonnegative and A2.is_nonnegative and A3.is_nonnegative):
        raise DomainError("blocks must be nonnegative")
    if not is_irreducible(A2):
        raise DomainError("A2 must be irreducible")
    if A3.rows != A2.rows or A3.cols != A1.cols:
        raise DimensionError("A3 must be (order A2) x (order A1)")
    if all(v == 0 for row in A3.entries() for v in row):
        raise DomainError("coupling block A3 is zero; use the lemma2 coupling path")
    n1, n = A1.rows, A1.rows + A2.rows
    M = RationalMatrix.from_blocks([[A1, RationalMatrix.zeros(n1, A2.rows)], [A3, A2]])
    Y, Yinv = _lift_factor(_ExactOps, M, n, n1, n, n1, lam)
    B = Yinv @ M @ Y
    if not B.is_nonnegative or any(s != lam for s in B.row_sums()):
        raise CertificationError("lift produced a matrix outside CS form")
    return tuple(Y[i, i] for i in range(n)), B


def lemma2_coupling(A1: RationalMatrix, A2: RationalMatrix, z=None):
    """Manufacture a nonzero coupling for diag(A1, A2) by an explicit shear.

    A1 in CS_lambda1 and A2 irreducible in CS_rho(A2) with rho(A2) strictly
    below lambda1.  z is a nonnegative left eigenvector of A1 at lambda1
    (computed when omitted, normalized to max entry 1).  Returns (S, A3)
    where S = [[I,0],[-e z^T, I]] satisfies
    S^-1 diag(A1,A2) S = [[A1,0],[A3,A2]] and every row of A3 equals
    (lambda1 - rho(A2)) z^T.
    """
    lam = constant_row_sum_value(A1)
    if lam is None:
        raise DomainError("A1 is not in constant-row-sum form")
    rho2 = constant_row_sum_value(A2)
    if rho2 is None:
        raise DomainError("A2 is not in constant-row-sum form")
    if not is_irreducible(A2):
        raise DomainError("A2 must be irreducible")
    if lam == rho2:
        raise CouplingError("lambda1 equals rho(A2): the coupling A3 would vanish")
    if lam < rho2:
        raise SpectralDominanceError("rho(A2) exceeds lambda1")
    if z is None:
        z = _left_eigenvector_exact(A1, lam)
    z = tuple(rat(v) for v in z)
    if len(z) != A1.rows:
        raise DimensionError("z has wrong length")
    if any(v < 0 for v in z):
        raise DomainError("z has a negative entry")
    if all(v == 0 for v in z):
        raise DomainError("z is zero")
    resid = tuple(a - lam * b for a, b in zip(A1.transpose().mat_vec(z), z))
    if any(v != 0 for v in resid):
        raise DomainError("z is not a left eigenvector of A1 at lambda1")
    zmax = max(z)
    z = tuple(v / zmax for v in z)
    n1, n2 = A1.rows, A2.rows
    S, _ = _shear_factor(_ExactOps, n1 + n2, n1, n1 + n2, z)
    coeff = lam - rho2
    A3 = RationalMatrix([[coeff * zj for zj in z] for _ in range(n2)])
    return S, A3


def _left_eigenvector_exact(B, lam):
    """Nonnegative left eigenvector of B at lam, normalized to max entry 1."""
    basis = kernel(B.transpose() - RationalMatrix.identity(B.rows).scale(lam))
    if len(basis) != 1:
        raise DomainError(
            "left eigenspace at %s is %d-dimensional; supply z explicitly"
            % (format_rational(lam), len(basis))
        )
    z = basis[0]
    if any(v > 0 for v in z) and any(v < 0 for v in z):
        raise SpectraError("internal invariant violation: mixed-sign left eigenvector")
    if all(v <= 0 for v in z):
        z = tuple(-v for v in z)
    zmax = max(z)
    return tuple(v / zmax for v in z)


def _right_eigenvector_exact(B, lam):
    basis = kernel(B - RationalMatrix.identity(B.rows).scale(lam))
    if len(basis) != 1:
        raise SpectraError(
            "eigenspace at %s is %d-dimensional" % (format_rational(lam), len(basis))
        )
    x = basis[0]
    if all(v <= 0 for v in x):
        x = tuple(-v for v in x)
    if any(v <= 0 for v in x):
        raise SpectraError("internal invariant violation: eigenvector not positive")
    # clear denominators for readable transcripts; scaling cancels in D^-1 A D
    ints, _ = _integer_row(x)
    return tuple(Fraction(v) for v in ints)


# ---------------------------------------------------------------------------
# Perron root identification
# ---------------------------------------------------------------------------

_DENOMINATOR_LADDER = (1, 10, 100, 10**4, 10**6, 10**9, 10**12)


def _rationalize_root(coeffs, estimate: float):
    for bound in _DENOMINATOR_LADDER:
        cand = Fraction(estimate).limit_denominator(bound)
        if poly_eval(coeffs, cand) == 0:
            return cand
    return None


def perron_root_exact(A: RationalMatrix):
    """(lambda1, remaining char poly) with lambda1 certified a simple root.

    Returns (None, None) when the Perron root resists rational
    reconstruction (float mode territory).  Raises PerronNotSimple when the
    reconstructed root has multiplicity greater than one.
    """
    coeffs = char_poly(A)
    ev = np.linalg.eigvals(to_float(A).array)
    rho = float(np.max(np.abs(ev))) if ev.size else 0.0
    lam = _rationalize_root(coeffs, rho)
    if lam is None:
        return None, None
    quotient, rem = synthetic_div(coeffs, lam)
    if rem != 0:
        raise SpectraError("internal error: reconstructed root fails to divide")
    if poly_eval(quotient, lam) == 0:
        raise PerronNotSimple(
            "Perron root %s has algebraic multiplicity >= 2; the reduction to "
            "constant row sums requires a simple Perron root (witness class: "
            "[[1,0],[1,1]])" % format_rational(lam)
        )
    return lam, quotient


# ---------------------------------------------------------------------------
# reducible layout planning
# ---------------------------------------------------------------------------


def _plan_layout(A, perron_component):
    """(permutation, ranges) of the absorb plan; None when the Perron chain leaks outward.

    perron_component(A, components) names the component carrying the Perron
    root.  Each range is (kind, payload, start, stop) in permuted
    coordinates, kind "block" (payload a component index) or "cluster"
    (payload a list of them); the Perron block comes first.
    """
    adj = adjacency(A)
    comps = strongly_connected_components(adj)
    edges = condensation_edges(adj, comps)
    return _plan_from_graph(comps, edges, perron_component(A, comps))


def _root_component(lam):
    """Exact Perron-component choice: the first block whose char poly vanishes at lam."""

    def pick(A, comps):
        for ci, comp in enumerate(comps):
            if poly_eval(char_poly(A.submatrix(comp, comp)), lam) == 0:
                return ci
        raise SpectraError("internal error: no block carries the Perron root")

    return pick


def _plan_from_graph(comps, edges, perron):
    in_neighbors = {ci: set() for ci in range(len(comps))}
    for u, w in edges:
        in_neighbors[w].add(u)

    reach = {perron}
    frontier = [perron]
    while frontier:
        w = frontier.pop()
        for u in in_neighbors[w]:
            if u not in reach:
                reach.add(u)
                frontier.append(u)

    if any(u in reach and w not in reach for u, w in edges):
        return None  # the Perron chain feeds an unreachable block

    def first(ci):
        return comps[ci][0]

    groups = [("block", perron)] + [
        ("block", ci) for ci in _placement_order(reach - {perron}, edges, first)
    ]

    outside = [ci for ci in range(len(comps)) if ci not in reach]
    seen = set()
    for start in sorted(outside, key=first):
        if start in seen:
            continue
        group = {start}
        frontier = [start]
        while frontier:
            u = frontier.pop()
            for v in outside:
                if v not in group and ((u, v) in edges or (v, u) in edges):
                    group.add(v)
                    frontier.append(v)
        seen |= group
        ordered = _placement_order(group, edges, first)
        if len(ordered) == 1:
            groups.append(("block", ordered[0]))
        else:
            groups.append(("cluster", ordered))

    perm = []
    ranges = []
    for kind, payload in groups:
        start = len(perm)
        for ci in payload if kind == "cluster" else [payload]:
            perm.extend(comps[ci])
        ranges.append((kind, payload, start, len(perm)))
    return perm, ranges


# ---------------------------------------------------------------------------
# the absorb loop, shared by exact and float mode
# ---------------------------------------------------------------------------


class _ExactOps:
    """Fraction arithmetic for the absorb loop."""

    one = Fraction(1)
    matrix = RationalMatrix
    diagonal = RationalMatrix.diagonal

    @staticmethod
    def sub(M, rows, cols):
        return M.submatrix(rows, cols)

    @staticmethod
    def row_sums(M):
        return M.row_sums()

    @staticmethod
    def nonzero(M):
        return any(v != 0 for row in M.entries() for v in row)

    @staticmethod
    def solve_shifted(lam, K, rhs):
        """y with (lam I - K) y = rhs, or None when the system is singular."""
        try:
            y = solve(
                RationalMatrix.identity(K.rows).scale(lam) - K, RationalMatrix.column(rhs)
            )
        except SingularMatrixError:
            return None
        return [y[i, 0] for i in range(K.rows)]

    @staticmethod
    def perron_vector(block, lam):
        """Positive eigenvector of an irreducible block at lam; at its own
        spectral radius when lam is None."""
        if lam is None:
            lam, _quot = perron_root_exact(block)
            if lam is None:
                raise ModeError(
                    "a diagonal block has an irrational spectral radius; "
                    "rerun in float mode"
                )
        return _right_eigenvector_exact(block, lam)

    left_vector = staticmethod(_left_eigenvector_exact)


class _FloatOps:
    """float64 arithmetic for the absorb loop (tolerance 1e-13 on zero tests)."""

    one = 1.0
    matrix = staticmethod(np.array)
    diagonal = staticmethod(np.diag)

    @staticmethod
    def sub(M, rows, cols):
        return M[np.ix_(rows, cols)]

    @staticmethod
    def row_sums(M):
        return M.sum(axis=1)

    @staticmethod
    def nonzero(M):
        return bool(np.any(M > 1e-13))

    @staticmethod
    def solve_shifted(lam, K, rhs):
        try:
            return np.linalg.solve(lam * np.eye(K.shape[0]) - K, rhs)
        except np.linalg.LinAlgError:
            return None

    @staticmethod
    def perron_vector(block, lam):
        return perron_data(FloatMatrix(block))[1]

    @staticmethod
    def left_vector(B, lam):
        return _left_vec_float(B, lam)


def _diagonal_factor(ops, n, a, vec):
    """D = diag(1,...,1, vec, 1,...,1) with vec from index a, and D^-1."""
    d = [ops.one] * n
    d[a : a + len(vec)] = vec
    return ops.diagonal(d), ops.diagonal([1 / v for v in d])


def _shear_factor(ops, n, a, b, z):
    """T = I + E where every row of E[a:b, :len(z)] is -z, and T^-1 = I - E.

    E^2 = 0 because a >= len(z), which gives the inverse in closed form.
    """

    def build(sign):
        rows = [[ops.one if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(a, b):
            rows[i][: len(z)] = [-sign * v for v in z]
        return ops.matrix(rows)

    return build(1), build(-1)


def _dominated_solution(ops, K, lam, rhs, what):
    """Positive y with (lam I - K) y = rhs; SpectralDominanceError otherwise.

    For rhs >= 0 nonzero and K irreducible (or rhs > 0), a positive y exists
    iff rho(K) < lam (subinvariance, Berman-Plemmons Thm 2.1.11).
    """
    y = ops.solve_shifted(lam, K, rhs)
    if y is None:
        raise SpectralDominanceError("%s: (lambda1 I - K) is singular" % what)
    if not all(v > 0 for v in y):
        raise SpectralDominanceError(
            "%s: (lambda1 I - K) y = b has no positive solution, so rho(K) >= "
            "lambda1" % what
        )
    return y


def _lift_factor(ops, M, n, a, b, bound, lam):
    """Lemma 1 as a diagonal similarity: absorb block [a, b) of M into [0, bound).

    With A2 = M[a:b, a:b] and A3 = M[a:b, :bound] (the part [0, bound) already
    in CS_lam form), y solves (lam I - A2) y = A3 e and the factor is
    diag(1,...,1, y, 1,...,1).
    """
    rows = range(a, b)
    A3e = ops.row_sums(ops.sub(M, rows, range(bound)))
    y = _dominated_solution(ops, ops.sub(M, rows, rows), lam, A3e, "lift")
    return _diagonal_factor(ops, n, a, y)


def _absorb(ops, A, lam, plan, transcript):
    """Scale, couple and lift the planned blocks of A into CS_lam form.

    Returns (B, S, factors).  Every step conjugates M <- T^-1 M T by a
    diagonal or shear factor T whose inverse is known in closed form.
    """
    perm, ranges = plan
    n = len(perm)
    M = ops.sub(A, perm, perm)
    S = ops.matrix(
        [[ops.one if i == perm[j] else 0 for j in range(n)] for i in range(n)]
    )
    factors = [S]
    transcript.append(RowSumStep("permutation", {"order": list(perm)}))

    def conjugate(factor, kind, detail):
        nonlocal M, S
        T, Tinv = factor
        M = Tinv @ M @ T
        S = S @ T
        factors.append(T)
        transcript.append(RowSumStep(kind, detail))

    # 1. scale the Perron block into CS_lambda, other blocks into CS_rho form
    for i, (kind, payload, a, b) in enumerate(ranges):
        if kind == "cluster" or b - a == 1:
            continue
        block = ops.sub(M, range(a, b), range(a, b))
        x = ops.perron_vector(block, lam if i == 0 else None)
        label = "perron" if i == 0 else "component-%d" % payload
        conjugate(
            _diagonal_factor(ops, n, a, x),
            "block-scaling",
            {"block": label, "range": [a, b]},
        )

    # 2. absorb blocks in plan order
    bound = ranges[0][3]
    for kind, payload, a, b in ranges[1:]:
        rows = range(a, b)
        suffix = ""
        if kind == "cluster":
            ones = [ops.one] * (b - a)
            d = _dominated_solution(ops, ops.sub(M, rows, rows), lam, ones, "cluster")
            conjugate(
                _diagonal_factor(ops, n, a, d),
                "cluster-scaling",
                {"range": [a, b], "components": list(payload)},
            )
            suffix = "-general"
        if kind == "cluster" or not ops.nonzero(ops.sub(M, rows, range(bound))):
            z = ops.left_vector(ops.sub(M, range(bound), range(bound)), lam)
            conjugate(
                _shear_factor(ops, n, a, b, z),
                "lemma2-coupling" + suffix,
                {"range": [a, b], "coupled-into": [0, bound]},
            )
        conjugate(
            _lift_factor(ops, M, n, a, b, bound, lam),
            "lemma1-lift" + suffix,
            {"range": [a, b], "absorbed-into": [0, bound]},
        )
        bound = b
    return M, S, factors


# ---------------------------------------------------------------------------
# exact pipeline
# ---------------------------------------------------------------------------


def _resolve_mode(mode):
    if mode is None:
        mode = os.environ.get("SPECTRA_MODE", "auto")
    if mode not in ("exact", "float", "auto"):
        raise DomainError("mode must be 'exact', 'float' or 'auto'")
    return mode


def to_constant_row_sums(A: RationalMatrix, mode=None) -> RowSumResult:
    """Similarity-transform A into nonnegative constant-row-sum form.

    Exact mode needs the Perron root (and the spectral radius of every
    irreducible diagonal block it scales) to be rational; float mode runs
    the same construction in doubles with verification tolerance 1e-9.
    """
    mode = _resolve_mode(mode)
    if not A.is_square:
        raise DimensionError("input must be square")
    if not A.is_nonnegative:
        raise DomainError("input has a negative entry")
    if not isinstance(A, RationalMatrix):
        if mode == "exact":
            raise ModeError("exact mode needs a RationalMatrix input")
        return _to_cs_float(np.asarray(A.array, dtype=float))

    if mode == "float":
        return _to_cs_float(to_float(A).array)

    lam, _quot = perron_root_exact(A)
    if lam is None:
        if mode == "exact":
            raise ModeError(
                "the Perron root appears irrational; rerun in float mode"
            )
        return _to_cs_float(to_float(A).array)
    try:
        return _to_cs_exact(A, lam)
    except ModeError:
        if mode == "exact":
            raise
        return _to_cs_float(to_float(A).array)


def _check_simple_float(arr, tol=1e-9):
    ev = np.linalg.eigvals(arr)
    rho = float(np.max(np.abs(ev))) if ev.size else 0.0
    close = np.sum(np.abs(ev - rho) <= tol * max(1.0, rho))
    if close != 1:
        raise PerronNotSimple(
            "Perron root %.12g is not numerically simple (%d eigenvalues within "
            "1e-9)" % (rho, int(close))
        )


def _to_cs_exact(A: RationalMatrix, lam) -> RowSumResult:
    n = A.rows
    transcript = []
    if n == 1:
        return RowSumResult(
            A,
            RationalMatrix.identity(1),
            transcript,
            "exact",
            A[0, 0],
            factors=[RationalMatrix.identity(1)],
        )

    if is_irreducible(A):
        x = _right_eigenvector_exact(A, lam)
        B = A.diag_conjugate(x)
        S = RationalMatrix.diagonal(x)
        transcript.append(
            RowSumStep(
                "diagonal-scaling",
                {"scope": "global", "vector": [format_rational(v) for v in x]},
            )
        )
        _verify_exact(A, B, S, lam)
        return RowSumResult(B, S, transcript, "exact", lam, factors=[S])

    plan = _plan_layout(A, _root_component(lam))
    if plan is None:
        return _via_transpose(A, lam)
    B, S, factors = _absorb(_ExactOps, A, lam, plan, transcript)
    _verify_exact(A, B, S, lam)
    return RowSumResult(B, S, transcript, "exact", lam, factors=factors)


def _verify_exact(A, B, S, lam):
    if not B.is_nonnegative:
        raise CertificationError("result has a negative entry")
    if any(s != lam for s in B.row_sums()):
        raise CertificationError("result is not in CS form")
    if solve(S, A @ S) != B:
        raise CertificationError("similarity verification failed")


# ---------------------------------------------------------------------------
# transpose fallback
# ---------------------------------------------------------------------------


def similarity_to_transpose(A: RationalMatrix) -> RationalMatrix:
    """Exact invertible X with A X = X A^T (always exists; found generically)."""
    n = A.rows
    rows = []
    for i in range(n):
        for j in range(n):
            row = [Fraction(0)] * (n * n)
            for k in range(n):
                row[k * n + j] += A[i, k]
                row[i * n + k] -= A[j, k]
            rows.append(row)
    basis = kernel(RationalMatrix(rows))
    if not basis:
        raise SpectraError("internal error: empty Sylvester kernel")

    def as_matrix(vec):
        return RationalMatrix([[vec[i * n + j] for j in range(n)] for i in range(n)])

    for v in basis:
        X = as_matrix(v)
        if determinant(X) != 0:
            return X
    rng = random.Random(0)
    for _ in range(200):
        coeffs = [rng.randint(-3, 3) for _ in basis]
        vec = [
            sum(c * bv[k] for c, bv in zip(coeffs, basis))
            for k in range(n * n)
        ]
        X = as_matrix(vec)
        if determinant(X) != 0:
            return X
    raise SpectraError("internal error: no invertible transpose similarity found")


def _via_transpose(A: RationalMatrix, lam) -> RowSumResult:
    At = A.transpose()
    if _plan_layout(At, _root_component(lam)) is None:
        raise UnsupportedLayoutError(
            "the reducible layout entangles the Perron block in both "
            "directions; this reduction is not implemented"
        )
    inner = _to_cs_exact(At, lam)
    X = similarity_to_transpose(A)
    S = X @ inner.S
    transcript = [
        RowSumStep("transpose-similarity", {"note": "reduction ran on the transpose"})
    ] + list(inner.transcript)
    _verify_exact(A, inner.B, S, lam)
    return RowSumResult(
        inner.B, S, transcript, "exact", lam, factors=[X] + list(inner.factors)
    )


# ---------------------------------------------------------------------------
# float pipeline
# ---------------------------------------------------------------------------

_FLOAT_TOL = 1e-9


def _to_cs_float(arr) -> RowSumResult:
    n = arr.shape[0]
    if n > 1:
        _check_simple_float(arr)
    transcript = [
        RowSumStep("float-mode", {"note": "floating arithmetic; tolerance 1e-9"})
    ]
    if n == 1:
        F = FloatMatrix(arr)
        return RowSumResult(
            F,
            FloatMatrix(np.eye(1)),
            transcript,
            "float",
            float(arr[0, 0]),
            factors=[np.eye(1)],
        )

    ev = np.linalg.eigvals(arr)
    lam = float(np.max(np.abs(ev)))

    if is_irreducible(FloatMatrix(arr)):
        _rho, x = perron_data(FloatMatrix(arr))
        B = arr / x[:, None] * x[None, :]
        S = np.diag(x)
        transcript.append(RowSumStep("diagonal-scaling", {"scope": "global"}))
        _verify_float(arr, B, S, _rho)
        return RowSumResult(
            FloatMatrix(B), FloatMatrix(S), transcript, "float", _rho, factors=[S]
        )

    plan = _plan_layout(FloatMatrix(arr), _perron_component)
    if plan is None:
        raise UnsupportedLayoutError(
            "float mode handles irreducible matrices and the chain/cluster "
            "layouts of the exact mode; this input is outside both"
        )
    B, S, factors = _absorb(_FloatOps, arr, lam, plan, transcript)
    _verify_float(arr, B, S, lam)
    return RowSumResult(
        FloatMatrix(B), FloatMatrix(S), transcript, "float", lam, factors=factors
    )


def _left_vec_float(B, lam, iters=200000, tol=1e-13):
    n = B.shape[0]
    shifted = B.T + np.eye(n)
    z = np.ones(n)
    for _ in range(iters):
        y = shifted @ z
        y = y / np.max(y)
        if np.max(np.abs(y - z)) <= tol:
            z = y
            break
        z = y
    z = np.clip(z, 0.0, None)
    z = z / np.max(z)
    resid = float(np.max(np.abs(B.T @ z - lam * z)))
    if resid > 1e-8 * max(1.0, abs(lam)):
        raise SpectraError("left eigenvector iteration residual %.3e" % resid)
    return z


def _verify_float(arr, B, S, lam):
    scale = max(1.0, float(np.max(np.abs(arr))), abs(lam))
    if np.min(B) < -_FLOAT_TOL * scale:
        raise CertificationError("float result has a significantly negative entry")
    if np.max(np.abs(B @ np.ones(B.shape[0]) - lam)) > _FLOAT_TOL * scale:
        raise CertificationError("float row sums deviate beyond 1e-9")
    resid = np.max(np.abs(np.linalg.solve(S, arr @ S) - B))
    if resid > _FLOAT_TOL * scale * 10:
        raise CertificationError("float similarity residual %.3e" % resid)
