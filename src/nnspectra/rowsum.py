"""Similarity transform of a nonnegative matrix into constant-row-sum form.

For a nonnegative matrix with a *simple* Perron root lambda1 this produces a
nonnegative B with every row summing to lambda1 and an explicit similarity
S with S^-1 A S = B (exact over the rationals whenever the Perron data is
rational).  The reduction walks the block structure:

  * an irreducible matrix is diagonally scaled by its positive eigenvector;
  * a block that couples into the already-normalized part is absorbed by a
    lift through the solution y of (lambda1 I - A2) y = A3 e;
  * a fully decoupled block is first coupled by an explicit shear built
    from a left eigenvector, then absorbed by the same lift.  The part
    absorbed so far stays block lower triangular with the scaled Perron
    block first, so its left eigenvector at lambda1 is the Perron block's,
    padded with zeros: it is computed once, on that block, per reduction.

Two documented extensions widen the reducible layouts accepted beyond the
plain chain-plus-isolated picture.  Mutually decoupled *clusters* of blocks
are absorbed whole (after a scaling that pushes all their row sums strictly
below lambda1).  When the Perron side (the Perron block and every block
that reaches it) feeds other blocks, a Sylvester decoupling removes those
entries first: with Q the Perron side, R the rest and Y the entries by
which Q feeds R, T = I + W on them gives T^-1 A T = D, A with Y set to 0,
whenever Q W - W R = -Y (Roth's removal rule).  That is one exact solve in
|Q| |R| unknowns, nonsingular iff spec(Q) and spec(R) are disjoint; D's
blocks are A's own, and R's blocks, now isolated, are coupled back in by
the usual shear.  Only when the two sides share an eigenvalue does exact
mode reduce A^T instead, through an X with A X = X A^T from the kernel of
an n^2 x n^2 Sylvester system, and refuse when A^T's two sides share one
too; float mode refuses at once.  _reduce is the one place that decouples
and plans, for A and for A^T, in both modes.  The simple-root hypothesis
cannot be dropped: [[1,0],[1,1]] has no such B.

Both modes start from one pass over the strongly connected components of
the exact input A, the one source of per-block data: to_constant_row_sums
builds it once and hands it to whichever mode runs (to_float keeps exactly
A's positive entries, so float mode reads A's digraph).  In exact mode it
builds each diagonal block and its integer char poly once, and
perron_root_exact finds every block's spectral radius from it exactly, by
Newton probes decided by the Taylor test, with bisection as the bounded
fallback, over the integers with no float anywhere; lambda1 is the largest.
As det(xI - A) is the product of the block polys and an irreducible block
carries its radius as a simple root and no root of larger modulus, lambda1
is simple iff exactly one block has radius lambda1, and that block is the
Perron block.  Each block is scaled by a kernel vector of the block that
pass built, at the block's own radius.  An irreducible A whose certified
pair (lambda1, x) a caller hands in needs no char poly and no kernel: it is
its own block, with radius lambda1 and Perron vector x.  The transpose path
reuses the same pass: A^T has A's components, the condensation edges
reversed, the transposed blocks and the same radii, so its transcript names
A's components.
In float mode structure.perron_eig decomposes each diagonal block once:
lambda1 is the largest block root, no other eigenvalue of A may lie within
1e-9 max(|lambda1|, max |a_ij|) of it, its block is the Perron block, and
each block is scaled by its own eigenvector; every float tolerance is
relative to that scale, so c A normalizes like A for every c > 0.  A 1x1
matrix is irreducible, in both modes, and takes the irreducible branch.
Each mode verifies its result before returning it: exactly over the
integers, or to the float tolerance.

Exact and float mode run the same absorb loop and the same steps.  Each
step is a diagonal scaling or a shear, a module function on plain lists of
rows: in exact mode integer rows over one positive denominator (_Ints,
started from A.num and A.den and put back in lowest terms after every
step), in float mode Python floats.  A vector reaches a step in the same
form, integer numerators over one denominator in exact mode, so no
Fraction is made on the way.  The loop updates the working matrix and S in
place and multiplies no n x n matrices: in float mode each step touches
only the rows and columns of its block, in O(n k) for a block of size k,
while on integer rows a step rescales the whole form to its new
denominator.  A small backend class supplies only what differs: the
field's zero and one, the form of its rows, the zero test, the linear
solves and the Perron vector of a component, read from the component
pass.  The transcript is the one record of the steps.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

from .core import (
    FloatMatrix,
    RationalMatrix,
    _char_poly_int,
    _integer_product,
    _is_singular,
    _rescaled_poly,
    _root_ceiling,
    _shifted,
    _taylor,
    format_rational,
    kernel,
    matrix_to_json,
    rat,
    solve,
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
from .structure import _components, is_irreducible, perron_eig


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

    def to_json(self):
        exact = self.mode == "exact"
        number = format_rational if exact else (lambda v: repr(float(v)))
        matrix = matrix_to_json if exact else (
            lambda M: [list(map(number, row)) for row in M.array.tolist()]
        )
        return {
            "schema": 1,
            "mode": self.mode,
            "lambda": number(self.lam),
            "B": matrix(self.B),
            "S": matrix(self.S),
            "transcript": [s.to_json() for s in self.transcript],
        }


def constant_row_sum_value(A: RationalMatrix):
    """The common row sum when A (square or not) is in CS form, else None:
    the one CS test.  A = A'/a is in CS form iff A' is, so the integer row
    sums are compared and one Fraction, the common sum over a, is built."""
    first, *rest = map(sum, A.num)
    return Fraction(first, A.den) if all(s == first for s in rest) else None


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
    if not any(map(any, A3.num)):
        raise DomainError("coupling block A3 is zero; use the lemma2 coupling path")
    n1, n = A1.rows, A1.rows + A2.rows
    blocks = RationalMatrix.from_blocks([[A1, RationalMatrix.zeros(n1, A2.rows)], [A3, A2]])
    M = _Ints(map(list, blocks.num), blocks.den)
    y = _lift_factor(_ExactOps, M, n1, n, n1, lam)
    _scale(M, _Ints(), n1, y)
    B = _ExactOps.matrix(M)
    if not B.is_nonnegative or constant_row_sum_value(B) != lam:
        raise CertificationError("lift produced a matrix outside CS form")
    return (Fraction(1),) * n1 + tuple(Fraction(v, y.den) for v in y), B


def lemma2_coupling(A1: RationalMatrix, A2: RationalMatrix, z=None):
    """Manufacture a nonzero coupling for diag(A1, A2) by an explicit shear.

    A1 in CS_lambda1 and A2 irreducible in CS_rho(A2) with rho(A2) strictly
    below lambda1.  z is a nonnegative left eigenvector of A1 at lambda1
    (computed when omitted, normalized to max entry 1).  Returns (S, A3)
    where S = [[I,0],[-e z^T, I]] satisfies
    S^-1 diag(A1,A2) S = [[A1,0],[A3,A2]] and every row of A3 equals
    (lambda1 - rho(A2)) z^T: the absorb loop's shear step, run on
    diag(A1, A2).
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
    else:
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
        Z = RationalMatrix([[v / max(z) for v in z]])
        z = _Ints(Z.num[0], Z.den)
    n1, n2 = A1.rows, A2.rows
    blocks = RationalMatrix.from_blocks(
        [[A1, RationalMatrix.zeros(n1, n2)], [RationalMatrix.zeros(n2, n1), A2]]
    )
    M, S = _start(_ExactOps, _Ints(blocks.num, blocks.den), range(n1 + n2))
    _shear(M, S, n1, n1 + n2, z)
    return _ExactOps.matrix(S), _ExactOps.matrix(_Ints([row[:n1] for row in M[n1:]], M.den))


def _left_eigenvector_exact(B, lam):
    """Nonnegative left eigenvector of B at lam, normalized to max entry 1,
    as integers over one denominator: the primitive kernel vector over its
    largest entry, already in lowest terms."""
    basis = kernel(_shifted(lam, B.transpose()), primitive=True)
    if len(basis) != 1:
        raise DomainError(
            "left eigenspace at %s is %d-dimensional; supply z explicitly"
            % (format_rational(lam), len(basis))
        )
    z = basis[0]  # positive at its free column, so a negative entry means mixed signs
    if any(v < 0 for v in z):
        raise SpectraError("internal invariant violation: mixed-sign left eigenvector")
    return _Ints(z, max(z))


def _right_eigenvector_exact(B, lam):
    """Positive eigenvector of B at lam, as the primitive integer vector of
    the kernel (over 1): readable in transcripts, and D^-1 B D stays on
    integers."""
    basis = kernel(_shifted(lam, B), primitive=True)
    if len(basis) != 1:
        raise SpectraError(
            "eigenspace at %s is %d-dimensional" % (format_rational(lam), len(basis))
        )
    x = basis[0]  # positive at its free column
    if any(v <= 0 for v in x):
        raise SpectraError("internal invariant violation: eigenvector not positive")
    return _Ints(x)


# ---------------------------------------------------------------------------
# the component pass: lambda1, its simplicity and its block
# ---------------------------------------------------------------------------

def perron_root_exact(blocks):
    """(lambda1, radii): the spectral radius of each irreducible nonnegative
    block, and of the matrix with these diagonal blocks; None where irrational.

    With d the lcm of the blocks' denominators, q(y) = d^n p(d^-1 y) is monic
    over Z for each block poly p: coefficient k of det(yI - B.num) times
    (d / B.den)^k, so no Fraction is made.  rho is rational iff d rho is an
    integer.  Every root z of q has Re z <= d rho (Perron-Frobenius), and
    rho lies between the larger of the smallest row sum and the largest
    diagonal entry, and the largest row sum; so _root_ceiling over d times
    that range (Newton probes decided by the Taylor test, with bisection as
    the bounded fallback) finds m = ceil(d rho), and rho = m / d iff q(m) =
    0.  lambda1 is the largest rho.
    """
    d = math.lcm(*(B.den for B in blocks))
    radii, ceilings = [], []
    for B in blocks:
        s = d // B.den
        q = _rescaled_poly(_char_poly_int(B.num), s)
        sums = [s * sum(row) for row in B.num]
        lo = max(min(sums), s * max(row[i] for i, row in enumerate(B.num)))
        m = _root_ceiling(q, lo, max(sums))
        ceilings.append(m)
        radii.append(Fraction(m, d) if next(_taylor(q, m)) == 0 else None)
    top = max(ceilings)
    lam = next((r for r, m in zip(radii, ceilings) if m == top and r is not None), None)
    return lam, radii


def _perron_block(radii, lam):
    """Index of the one diagonal block whose radius (of perron_root_exact)
    is lam = rho(A).  lam is a root of an irreducible block's char poly iff
    it is the block's radius, and then a simple one (Perron-Frobenius), so
    its multiplicity in A is the number of blocks with radius lam."""
    hits = [ci for ci, r in enumerate(radii) if r == lam]
    if not hits:
        raise SpectraError("internal error: no block carries the Perron root")
    if len(hits) > 1:
        raise PerronNotSimple(
            "Perron root %s has algebraic multiplicity >= 2; the reduction to "
            "constant row sums requires a simple Perron root (witness class: "
            "[[1,0],[1,1]])" % format_rational(lam)
        )
    return hits[0]


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


def _reach(count, edges, perron):
    """The Perron block and every block that couples into it, directly or
    through others, among the components 0 .. count - 1."""
    in_neighbors = {ci: set() for ci in range(count)}
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
    return reach


def _plan_from_graph(comps, edges, perron, reach):
    """(permutation, ranges) of the absorb plan, for edges by which the
    Perron side reach (of _reach) feeds no other block.

    Each range is (kind, payload, start, stop) in permuted coordinates, kind
    "block" (payload a component index) or "cluster" (payload a list of
    them); the Perron block comes first, then the blocks that reach it.
    """

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


def _sylvester_system(Q, R, zero):
    """The rows of the linear map W -> Q W - W R, for square Q and R given
    by their rows; the unknown W[i][j] is entry i |R| + j."""
    m = len(R)
    system = []
    for i, qrow in enumerate(Q):
        for j in range(m):
            row = [zero] * (len(Q) * m)
            for l, v in enumerate(qrow):
                row[l * m + j] += v
            for l, rrow in enumerate(R):
                row[i * m + l] -= rrow[j]
            system.append(row)
    return system


def _sylvester_decoupling(ops, rows, q, r):
    """(D, T) with T^-1 A T = D, both as rows, for A given by its rows, q
    the vertices of the Perron side and r the others; None when
    Q = A[q, q] and R = A[r, r] share an eigenvalue.

    No block outside the Perron side couples into it, so A[r, q] = 0: with r
    ordered first, A is [[R, 0], [Y, Q]], Y = A[q, r].  By Roth's removal
    rule (Proc. AMS 3, 1952), [[I, 0], [W, I]] makes it diag(R, Q) when
    Q W - W R = -Y.  That Sylvester equation is one linear system in the
    |q| |r| entries of W, and it is nonsingular iff spec(Q) and spec(R) are
    disjoint.  In A's own coordinates D is A with its q-row/r-column
    entries set to 0, hence nonnegative, and T is I with W in those entries.
    """
    m, zero = len(r), ops.zero
    # Q, R and Y share the rows' denominator, which cancels from the system
    system = _sylvester_system(
        [[rows[i][j] for j in q] for i in q], [[rows[i][j] for j in r] for i in r], zero
    )
    w = ops.solve_linear(
        ops.matrix(ops.form(system)), ops.form([-rows[qi][rj] for qi in q for rj in r])
    )
    if w is None:
        return None
    n, unit = len(rows), ops.one * _den(w)  # 1, over W's denominator
    D = ops.form([list(row) for row in rows], _den(rows))
    T = ops.form([[unit if i == j else zero for j in range(n)] for i in range(n)], _den(w))
    for i, qi in enumerate(q):
        for j, rj in enumerate(r):
            D[qi][rj] = zero
            T[qi][rj] = w[i * m + j]
    return D, T


def _reduce(ops, rows, comps, edges, perron, lam, transcript):
    """(B, S) with S^-1 A S = B in CS_lam form, for A given by its rows;
    None when the Perron side feeds other blocks and shares an eigenvalue
    with them.

    An irreducible A is diagonally scaled by its Perron vector; the step
    names the vector when it is an integer form.  When the Perron side (of
    _reach) feeds other blocks, _sylvester_decoupling first sets those
    entries to 0 and starts S at its T; the plan is then that of the graph
    without those edges.
    """
    if len(comps) == 1:
        M, S = _start(ops, rows, range(len(rows)))
        x = ops.perron_vector(0)
        _scale(M, S, 0, x)
        detail = {"scope": "global"}
        if isinstance(x, _Ints):
            detail["vector"] = [str(v) for v in x]
        transcript.append(RowSumStep("diagonal-scaling", detail))
        return ops.result(M), ops.result(S)
    reach = _reach(len(comps), edges, perron)
    leaks = {(u, w) for u, w in edges if u in reach and w not in reach}
    T = None
    if leaks:
        q = sorted(v for ci in reach for v in comps[ci])
        r = sorted(v for ci, comp in enumerate(comps) if ci not in reach for v in comp)
        decoupled = _sylvester_decoupling(ops, rows, q, r)
        if decoupled is None:
            return None
        transcript.append(RowSumStep("sylvester-decoupling", {"perron-side": q, "decoupled": r}))
        rows, T = decoupled
    plan = _plan_from_graph(comps, edges - leaks, perron, reach)
    return _absorb(ops, rows, lam, plan, transcript, T)


# ---------------------------------------------------------------------------
# the absorb loop, shared by exact and float mode
# ---------------------------------------------------------------------------


class _Ints(list):
    """Integers, or rows of integers, over one positive denominator den:
    the form exact mode's working matrices and vectors take.  Float mode
    passes plain lists of Python floats, which are over 1."""

    __slots__ = ("den",)

    def __init__(self, items=(), den=1):
        super().__init__(items)
        self.den = den


def _den(X):
    """The denominator of a form: den for integers, 1 for float lists."""
    return X.den if isinstance(X, _Ints) else 1


def _lowest(X):
    """Put the integer form X in lowest terms, in place."""
    if X.den == 1:
        return
    g = math.gcd(X.den, *chain.from_iterable(X))
    if g > 1:
        X[:] = [[v // g for v in row] for row in X]
        X.den //= g


def _start(ops, rows, perm, T=None):
    """Mutable forms of M = P^T A P and of S = T P, for A and T given as
    forms, P the permutation of perm and T the identity when None."""
    M = ops.form([[row[j] for j in perm] for row in map(rows.__getitem__, perm)], _den(rows))
    if T is None:
        S = ops.form([[ops.zero] * len(perm) for _ in perm])
        for k, i in enumerate(perm):
            S[i][k] = ops.one
    else:
        S = ops.form([[row[j] for j in perm] for row in T], _den(T))
    return M, S


def _scale(M, S, a, vec):
    """M <- D^-1 M D, S <- S D in place, for D = diag(1,...,1, vec, 1,...,1)
    with vec from index a.

    On float rows, rows [a, a+k) of M are divided by vec, and the same
    columns of M and S are multiplied by it.  On integer forms, with
    vec = x / m and L = lcm(x), numerator (i, j) of M is multiplied by
    r_i c_j and its denominator by L m, where r_i = L m / x_i in the block
    and L outside it, and c_j = x_j in the block and m outside it; S's
    columns are multiplied by c and its denominator by m.
    """
    cols = range(a, a + len(vec))
    if isinstance(M, _Ints):
        m, lcm = vec.den, math.lcm(*vec)
        r, c = [lcm] * len(M), [m] * len(M)
        for i, x in zip(cols, vec):
            r[i], c[i] = lcm * m // x, x
        M[:] = [[v * ri * cj if v else 0 for v, cj in zip(row, c)] for row, ri in zip(M, r)]
        S[:] = [[v * cj if v else 0 for v, cj in zip(row, c)] for row in S]
        M.den *= lcm * m
        S.den *= m
        _lowest(M)
        _lowest(S)
        return
    for i, v in zip(cols, vec):
        M[i] = [x / v if x else x for x in M[i]]
    for row in M + S:
        for j, v in zip(cols, vec):
            if row[j]:
                row[j] *= v


def _shear(M, S, a, b, z):
    """M <- T^-1 M T, S <- S T in place, for T = I - u z^T with u the
    indicator of rows [a, b) and z padded with zeros; a >= k = len(z),
    so T^-1 = I + u z^T.  Rows [a, b) of M gain z^T M[:k]; then the first
    k columns of M and of S lose (the sum of their columns [a, b)) z^T.

    On integer forms, with z = z' / d, the numerators are multiplied by d
    before each half, and t is taken before the second: M ends over its
    denominator times d^2 and S over its own times d.
    """
    k, d = len(z), _den(z)
    w = [sum(v * x for v, x in zip(z, col) if v and x) for col in zip(*M[:k])]
    if d != 1:
        M[:] = [[x * d for x in row] for row in M]
        M.den *= d
    for i in range(a, b):
        M[i] = [x + y if y else x for x, y in zip(M[i], w)]
    for X in (M, S):
        for i, row in enumerate(X):
            t = sum(row[a:b])
            if d != 1:
                X[i] = row = [x * d for x in row]
            if t:
                row[:k] = [x - t * v if v else x for x, v in zip(row, z)]
        if d != 1:
            X.den *= d
    if isinstance(M, _Ints):
        _lowest(M)
        _lowest(S)


def _sub(ops, M, a, b):
    """The diagonal block M[a:b, a:b] as a backend matrix."""
    return ops.matrix(ops.form([row[a:b] for row in M[a:b]], _den(M)))


class _ExactOps:
    """Integer forms for the absorb loop, over one denominator each; blocks
    are the diagonal blocks of the component pass, radii their spectral
    radii (None where irrational) and vectors their Perron vectors where
    already known (None elsewhere), by component index."""

    zero, one = 0, 1
    form = _Ints

    def __init__(self, blocks, radii, vectors):
        self.blocks, self.radii, self.vectors = blocks, radii, vectors

    @staticmethod
    def matrix(rows):
        """The matrix of a form, reduced: a block of a reduced form need
        not be reduced itself."""
        return RationalMatrix._of_ints(rows, rows.den)

    @staticmethod
    def result(rows):
        """The matrix of a form that _lowest has just reduced (B or S at the
        end of a reduction), built as it stands, with no second gcd."""
        return RationalMatrix._canonical(tuple(map(tuple, rows)), rows.den)

    @staticmethod
    def nonzero(rows):
        return any(map(any, rows))

    @staticmethod
    def solve_linear(K, rhs):
        """x with K x = rhs, or None when K is singular; rhs and x are
        integer forms."""
        try:
            x = solve(K, RationalMatrix._of_ints([[v] for v in rhs], rhs.den))
        except SingularMatrixError:
            return None
        return _Ints([v for v, in x.num], x.den)

    @classmethod
    def solve_shifted(cls, lam, K, rhs):
        """y with (lam I - K) y = rhs, or None when the system is singular."""
        return cls.solve_linear(_shifted(lam, K), rhs)

    def perron_vector(self, ci):
        """Positive eigenvector of component ci's block at its spectral
        radius: the known one, else the block's kernel."""
        if self.vectors[ci] is not None:
            return self.vectors[ci]
        if self.radii[ci] is None:
            raise ModeError("a diagonal block has an irrational spectral radius")
        return _right_eigenvector_exact(self.blocks[ci], self.radii[ci])

    left_vector = staticmethod(_left_eigenvector_exact)


class _FloatOps:
    """float64 solves and eigenvectors for the absorb loop, on numpy arrays,
    returned as lists of Python floats; vectors are the blocks' Perron
    vectors, by component index, and scale = max(|lambda1|, max |a_ij|)
    sets the zero test's tolerance, 1e-13 scale."""

    zero, one = 0.0, 1.0
    matrix = result = staticmethod(np.array)

    def __init__(self, vectors, scale):
        self.vectors, self.scale = vectors, scale

    @staticmethod
    def form(items, den=1):
        """Float rows and vectors are plain lists, over 1."""
        return items

    def nonzero(self, rows):
        return any(v > 1e-13 * self.scale for row in rows for v in row)

    @staticmethod
    def solve_linear(K, rhs):
        """x with K x = rhs, or None when K is numerically singular: its
        smallest singular value is at most n eps times its largest, the
        rank rule of np.linalg.matrix_rank."""
        sigma = np.linalg.svd(K, compute_uv=False)
        if sigma[-1] <= K.shape[0] * np.finfo(float).eps * sigma[0]:
            return None
        return np.linalg.solve(K, rhs).tolist()

    @classmethod
    def solve_shifted(cls, lam, K, rhs):
        return cls.solve_linear(lam * np.eye(K.shape[0]) - K, rhs)

    def perron_vector(self, ci):
        return self.vectors[ci]

    @staticmethod
    def left_vector(B, lam):
        """Left Perron vector of the irreducible block B, max entry 1, by
        perron_eig on B^T, checked against lam, the scale of B's entries."""
        z = perron_eig(B.T)[2]
        resid = float(np.max(np.abs(B.T @ z - lam * z)))
        if resid > 1e-8 * abs(lam):
            raise SpectraError("left eigenvector residual %.3e" % resid)
        return z.tolist()


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


def _lift_factor(ops, M, a, b, bound, lam):
    """Lemma 1 as a diagonal similarity: absorb block [a, b) of M into [0, bound).

    With A2 = M[a:b, a:b] and A3 = M[a:b, :bound] (the part [0, bound) already
    in CS_lam form), returns the y that solves (lam I - A2) y = A3 e; the
    factor is diag(1,...,1, y, 1,...,1), applied by a scale step at a.
    """
    A3e = ops.form([sum(row[:bound]) for row in M[a:b]], _den(M))
    return _dominated_solution(ops, _sub(ops, M, a, b), lam, A3e, "lift")


def _absorb(ops, rows, lam, plan, transcript, T=None):
    """Scale, couple and lift the planned blocks of A, given by its rows
    in the backend's form, into CS_lam form.

    Returns (B, S).  M starts as the permuted A and S as T (the identity
    when None) times the permutation, so S^-1 (T A T^-1) S = B; in exact
    mode both are integer forms from start to end, in lowest terms after
    every step, and leave as matrices through ops.result with no second gcd.
    A scale step divides the rows of one block of M by a positive vector and
    multiplies the same columns of M and S by it; a shear step adds a
    combination of the leading rows to the rows of one block, then takes the
    block's column sum, times that combination, off the leading columns of M
    and S.  Both update M and S in place, and each appends its transcript
    step.
    """
    perm, ranges = plan
    M, S = _start(ops, rows, perm, T)
    transcript.append(RowSumStep("permutation", {"order": list(perm)}))

    def apply(step, args, kind, detail):
        step(M, S, *args)
        transcript.append(RowSumStep(kind, detail))

    # 1. scale each block into CS_rho form at its own radius: the Perron
    # block's is lambda1; M[a:b, a:b] is still component payload's block
    for i, (kind, payload, a, b) in enumerate(ranges):
        if kind == "cluster" or b - a == 1:
            continue
        label = "perron" if i == 0 else "component-%d" % payload
        x = ops.perron_vector(payload)
        apply(_scale, (a, x), "block-scaling", {"block": label, "range": [a, b]})

    # 2. absorb blocks in plan order; M[:p, :p], the scaled Perron block,
    # stays as it is, and its left vector serves every coupling
    bound = p = ranges[0][3]
    z = None
    for kind, payload, a, b in ranges[1:]:
        suffix = ""
        if kind == "cluster":
            ones = ops.form([ops.one] * (b - a))
            d = _dominated_solution(ops, _sub(ops, M, a, b), lam, ones, "cluster")
            apply(
                _scale,
                (a, d),
                "cluster-scaling",
                {"range": [a, b], "components": list(payload)},
            )
            suffix = "-general"
        if kind == "cluster" or not ops.nonzero([row[:bound] for row in M[a:b]]):
            if z is None:
                z = ops.left_vector(_sub(ops, M, 0, p), lam)
            apply(
                _shear,
                (a, b, z),
                "lemma2-coupling" + suffix,
                {"range": [a, b], "coupled-into": [0, bound]},
            )
        apply(
            _scale,
            (a, _lift_factor(ops, M, a, b, bound, lam)),
            "lemma1-lift" + suffix,
            {"range": [a, b], "absorbed-into": [0, bound]},
        )
        bound = b
    return ops.result(M), ops.result(S)


# ---------------------------------------------------------------------------
# exact pipeline
# ---------------------------------------------------------------------------


def to_constant_row_sums(A: RationalMatrix, mode="auto") -> RowSumResult:
    """Similarity-transform the RationalMatrix A into nonnegative
    constant-row-sum form; any other input is refused with a DomainError.

    Exact mode needs the Perron root (and the spectral radius of every
    irreducible diagonal block it scales) to be rational; float mode runs
    the same construction on to_float(A) with verification tolerance 1e-9.
    Auto mode runs exact mode and falls back to float mode on ModeError;
    exact mode raises it, with _float_advice appended.  Each reads the one
    component pass of A built here.
    """
    if mode not in ("exact", "float", "auto"):
        raise DomainError("mode must be 'exact', 'float' or 'auto'")
    if not isinstance(A, RationalMatrix):
        raise DomainError("input must be a RationalMatrix")
    if not A.is_square:
        raise DimensionError("input must be square")
    if not A.is_nonnegative:
        raise DomainError("input has a negative entry")
    graph = _components(A)
    if mode != "float":
        try:
            return _to_cs_exact(A, graph)
        except ModeError as exc:
            if mode == "exact":
                raise ModeError("%s; %s" % (exc, _float_advice(A, graph))) from exc
    return _to_cs_float(to_float(A).array, graph)


def _float_advice(A: RationalMatrix, graph) -> str:
    """The advice of exact mode's ModeError: float mode, unless float mode
    refuses A too, and then float mode's own reason."""
    try:
        _to_cs_float(to_float(A).array, graph)
    except SpectraError as exc:
        return "%s, so floating point cannot take this input either" % exc
    return "rerun in float mode"


def _to_cs_exact(A: RationalMatrix, graph, certified=None) -> RowSumResult:
    """Exact CS form of A from one pass over its diagonal blocks, verified.

    graph is the caller's _components(A).  certified is a caller's proved
    pair (lambda1, x): lambda1 = rho(A) a simple eigenvalue, x its
    positive, primitive integer eigenvector.  An
    irreducible A with the pair is its own block, with radius lambda1 and
    Perron vector x: no char poly, no kernel.  Otherwise (a reducible A
    ignores the pair) perron_root_exact finds every block's radius from the
    blocks' integer char polys, lambda1 = rho(A) is the largest, and each
    block's kernel gives its Perron vector.  The blocks, their radii and the
    condensation edges serve the reduction of A and that of A^T.

    The result is checked by _verify_exact before it is returned, so every
    caller gets a similarity A S = S B that holds exactly, and a wrong x is
    refused there.
    """
    comps, edges = graph
    if certified is not None and len(comps) == 1:
        lam, x = certified
        blocks, radii, vectors, perron = [A], [lam], [_Ints(x)], 0
    else:
        blocks = [A.submatrix(c, c) for c in comps]
        vectors = [None] * len(comps)
        lam, radii = perron_root_exact(blocks)
        if lam is None:
            raise ModeError("the Perron root appears irrational")
        perron = _perron_block(radii, lam)

    transcript = []
    ops = _ExactOps(blocks, radii, vectors)
    # A^T when the Perron side shares an eigenvalue with a block it feeds
    result = _reduce(ops, _Ints(A.num, A.den), comps, edges, perron, lam, transcript)
    B, S = result or _via_transpose(A, comps, edges, perron, ops, lam, transcript)
    _verify_exact(A, B, S, lam)
    return RowSumResult(B, S, transcript, "exact", lam)


# the transpose fallback solves an n^2 x n^2 system, whose cost grows about
# as n^5 to n^6 (about 1 s at order 16 on a 2-vCPU host); larger orders
# are refused
MAX_TRANSPOSE_ORDER = 16


def _via_transpose(A, comps, edges, perron, ops, lam, transcript):
    """(B, S) from the reduction of A^T, for a layout that the Sylvester
    decoupling cannot split because its two sides share an eigenvalue.

    A^T has A's components, with every condensation edge reversed, the
    transposed blocks and the same radii, so the reduction reuses A's
    component pass and its transcript names A's components.  S is X S' for
    an X with A X = X A^T and the similarity S' of the reduction, which may
    decouple A^T's own Perron side first.  Orders above MAX_TRANSPOSE_ORDER
    are refused before any of it is built.
    """
    if A.rows > MAX_TRANSPOSE_ORDER:
        raise DomainError(
            "the Perron side shares an eigenvalue with the blocks it feeds, and "
            "the transpose fallback for such a layout is bounded to order %d; "
            "this input has order %d" % (MAX_TRANSPOSE_ORDER, A.rows)
        )
    transcript.append(
        RowSumStep("transpose-similarity", {"note": "reduction ran on the transpose"})
    )
    ops_t = _ExactOps([B.transpose() for B in ops.blocks], ops.radii, [None] * len(comps))
    edges_t = {(w, u) for u, w in edges}
    At = A.transpose()
    result = _reduce(ops_t, _Ints(At.num, At.den), comps, edges_t, perron, lam, transcript)
    if result is None:
        raise UnsupportedLayoutError(
            "the Perron side shares an eigenvalue with the blocks it feeds, "
            "both in A and in A^T; this reduction is not implemented"
        )
    return result[0], similarity_to_transpose(A) @ result[1]


def _verify_exact(A, B, S, lam):
    """B >= 0 in CS_lam form, and S invertible with A S = S B.

    Everything is read from the integer forms A = A'/a, S = S'/s and
    B = B'/b: constant_row_sum_value compares B's integer row sums, and
    A S = S B iff b A' S' = a S' B'.  Both products are core's
    _integer_product on the integer rows, as they are stored: each row of
    A' S' (of S' B') combines the rows of S' (of B') at the nonzero
    entries of a row of A' (of S'), so a diagonal S' costs one scaled row
    per row.  det S != 0 is _is_singular's one-prime test, with Bareiss
    only on a zero residue.
    """
    if not B.is_nonnegative:
        raise CertificationError("result has a negative entry")
    if constant_row_sum_value(B) != lam:
        raise CertificationError("result is not in CS form")
    (Ai, a), Si, (Bi, b) = (A.num, A.den), S.num, (B.num, B.den)
    AS, SB = _integer_product(Ai, Si), _integer_product(Si, Bi)
    if any(b * x != a * y for ra, rb in zip(AS, SB) for x, y in zip(ra, rb)):
        raise CertificationError("similarity verification failed")
    if _is_singular(S):
        raise CertificationError("similarity matrix is singular")


# ---------------------------------------------------------------------------
# transpose similarity
# ---------------------------------------------------------------------------


def similarity_to_transpose(A: RationalMatrix) -> RationalMatrix:
    """Exact invertible X with A X = X A^T (always exists; found generically)."""
    # X is in the kernel of X -> A X - X A^T, built from A's integer rows:
    # scaling the system by A's denominator leaves the kernel as it is
    n = A.rows
    basis = kernel(RationalMatrix._of_ints(_sylvester_system(A.num, list(zip(*A.num)), 0)))
    if not basis:
        raise SpectraError("internal error: empty Sylvester kernel")
    # the basis first; the seeded combinations are drawn only once every
    # basis vector has proved singular, so X depends on A alone
    rng = random.Random(0)
    draws = ([rng.randint(-3, 3) for _ in basis] for _ in range(200))
    combinations = (
        [sum(c * bv[k] for c, bv in zip(coeffs, basis)) for k in range(n * n)]
        for coeffs in draws
    )
    for vec in chain(basis, combinations):
        X = RationalMatrix([vec[i * n : (i + 1) * n] for i in range(n)])
        if not _is_singular(X):
            return X
    raise SpectraError("internal error: no invertible transpose similarity found")


# ---------------------------------------------------------------------------
# float pipeline
# ---------------------------------------------------------------------------

_FLOAT_TOL = 1e-9


def _to_cs_float(arr, graph) -> RowSumResult:
    """Float CS form of arr = to_float(A), on graph = _components(A)."""
    transcript = [
        RowSumStep("float-mode", {"note": "floating arithmetic; tolerance 1e-9"})
    ]
    comps, edges = graph
    # one eigendecomposition per diagonal block: lambda1 = rho(A) must be the
    # only eigenvalue within 1e-9 scale of rho, and its block is the Perron
    # block; scale = max(|lambda1|, max |a_ij|) has no floor, so the tests
    # read the same on c A for every c > 0
    eigs = [perron_eig(arr[np.ix_(c, c)]) for c in comps]
    lam = max(rho for _, rho, _ in eigs)
    scale = _float_scale(arr, lam)
    close = [int(np.sum(np.abs(ev - lam) <= _FLOAT_TOL * scale)) for ev, _, _ in eigs]
    if sum(close) != 1:
        raise PerronNotSimple(
            "Perron root %.12g is not numerically simple (%d eigenvalues within "
            "1e-9)" % (lam, sum(close))
        )
    ops = _FloatOps([x.tolist() for _, _, x in eigs], scale)
    # float mode has no transpose fallback for a shared eigenvalue
    result = _reduce(ops, arr.tolist(), comps, edges, close.index(1), lam, transcript)
    if result is None:
        raise UnsupportedLayoutError(
            "float mode needs the Perron side and the blocks it feeds "
            "to have disjoint spectra; this input has a singular "
            "Sylvester system"
        )
    B, S = result
    _verify_float(arr, B, S, lam)
    return RowSumResult(FloatMatrix(B), FloatMatrix(S), transcript, "float", lam)


def _float_scale(arr, lam):
    """max(|lambda1|, max |a_ij|): the scale of every float tolerance."""
    return max(abs(lam), float(np.max(np.abs(arr))))


def _verify_float(arr, B, S, lam):
    scale = _float_scale(arr, lam)
    if np.min(B) < -_FLOAT_TOL * scale:
        raise CertificationError("float result has a significantly negative entry")
    if np.max(np.abs(B @ np.ones(B.shape[0]) - lam)) > _FLOAT_TOL * scale:
        raise CertificationError("float row sums deviate beyond 1e-9")
    resid = np.max(np.abs(np.linalg.solve(S, arr @ S) - B))
    if resid > _FLOAT_TOL * scale * 10:
        raise CertificationError("float similarity residual %.3e" % resid)
