"""Brute-force Gromov-Hausdorff computations on finite metric spaces.

The oracle answers with the exact minimum, not an estimate. For finite
spaces X and Y it is enough to search pairs of maps (f: X -> Y, g: Y -> X):
the relation graph(f) together with the transpose of graph(g) is a
correspondence, and any correspondence contains one of this shape whose
distortion is no larger. The search runs as a depth-first scan over the
(f, g) encoding in lexicographic order with sound lower-bound pruning, so
it returns the same value as full enumeration and, among all minimizers,
the lexicographically first one. A work guard caps the number of explored
assignments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptySet, GuardExceeded, InvalidMetric, NotACorrespondence
from .graph import MetricGraph, PointSet, pairwise_distances

__all__ = [
    "FiniteMetricSpace",
    "Correspondence",
    "distortion",
    "gh_exact",
    "restrict_metric",
    "is_isometric",
]

_VALIDATION_TOL = 1e-9
# cells per block of the triangle scan, about 16 MB of float64
_TRIANGLE_BLOCK_CELLS = 1 << 21


def _checked_axioms(d) -> np.ndarray:
    """A read-only copy of ``d`` after every check but the triangle scan."""
    d = np.asarray(d, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1] or d.shape[0] == 0:
        raise InvalidMetric("distance matrix must be square and non-empty")
    if not np.isfinite(d).all():
        raise InvalidMetric("distance matrix has non-finite entries")
    if np.abs(np.diag(d)).max() > _VALIDATION_TOL:
        raise InvalidMetric("diagonal must be zero")
    if d.shape[0] > 1:
        if np.abs(d - d.T).max() > _VALIDATION_TOL:
            raise InvalidMetric("matrix must be symmetric")
        off = d[~np.eye(d.shape[0], dtype=bool)]
        if off.min() <= 0.0:
            raise InvalidMetric("off-diagonal distances must be positive")
    d = d.copy()
    d.flags.writeable = False
    return d


class FiniteMetricSpace:
    """A finite metric space given by its distance matrix.

    Construction validates the metric axioms: square shape, zero diagonal,
    symmetry, strictly positive off-diagonal entries, and the triangle
    inequality through every middle point, all within a fixed tolerance.
    The cubic triangle scan runs over blocks of middle points, so its work
    arrays stay near 16 MB, or one n x n slab for the largest matrices.
    """

    __slots__ = ("d",)

    def __init__(self, d: np.ndarray | Sequence[Sequence[float]]):
        d = _checked_axioms(d)
        n = d.shape[0]
        step = max(1, _TRIANGLE_BLOCK_CELLS // (n * n))
        for start in range(0, n, step):
            ks = slice(start, start + step)
            bad = d[:, ks, None] + d[None, ks, :] + _VALIDATION_TOL < d[:, None, :]
            through = np.flatnonzero(bad.any(axis=(0, 2)))
            if through.size:
                raise InvalidMetric(
                    f"triangle inequality fails through point {start + through[0]}"
                )
        self.d = d

    @classmethod
    def _trusted(cls, d: np.ndarray) -> "FiniteMetricSpace":
        """A space whose matrix is a metric by construction, such as a graph
        metric restricted to a point set: only the triangle scan is skipped."""
        space = cls.__new__(cls)
        space.d = _checked_axioms(d)
        return space

    @property
    def n(self) -> int:
        return self.d.shape[0]

    @staticmethod
    def from_line(xs: Iterable[float]) -> "FiniteMetricSpace":
        """Space of points on the real line with the absolute difference metric."""
        arr = np.asarray(sorted(set(float(x) for x in xs)), dtype=float)
        if arr.size == 0:
            raise EmptySet("empty coordinate list")
        return FiniteMetricSpace(np.abs(arr[:, None] - arr[None, :]))

    def __repr__(self) -> str:
        return f"FiniteMetricSpace({self.n} points)"


@dataclass(frozen=True)
class Correspondence:
    """A relation between index sets that covers both sides."""

    pairs: tuple[tuple[int, int], ...]

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)


def _as_pairs(R) -> tuple[tuple[int, int], ...]:
    if isinstance(R, Correspondence):
        return R.pairs
    return tuple((int(i), int(j)) for i, j in R)


def distortion(R, X: FiniteMetricSpace, Y: FiniteMetricSpace) -> float:
    """Largest discrepancy |d_X(x,x') - d_Y(y,y')| over pairs of related pairs.

    Raises NotACorrespondence unless every point of X and of Y appears.
    """
    pairs = _as_pairs(R)
    if not pairs:
        raise NotACorrespondence("empty relation")
    xs = [i for i, _ in pairs]
    ys = [j for _, j in pairs]
    if any(i < 0 or i >= X.n for i in xs) or any(j < 0 or j >= Y.n for j in ys):
        raise NotACorrespondence("relation references out-of-range indices")
    if len(set(xs)) != X.n or len(set(ys)) != Y.n:
        raise NotACorrespondence("relation does not cover both spaces")
    sub = np.abs(X.d[np.ix_(xs, xs)] - Y.d[np.ix_(ys, ys)])
    return float(sub.max())


# --------------------------------------------------------------------------
# exact Gromov-Hausdorff search


def _pair_value(f: Sequence[int], g: Sequence[int], DX, DY) -> float:
    xs = list(range(len(f))) + list(g)
    ys = list(f) + list(range(len(g)))
    sub = np.abs(DX[np.ix_(xs, xs)] - DY[np.ix_(ys, ys)])
    return float(sub.max())


def _seed_assignments(DX: np.ndarray, DY: np.ndarray) -> list[tuple[list[int], list[int]]]:
    n, m = DX.shape[0], DY.shape[0]
    ecc_x = DX.max(axis=1)
    ecc_y = DY.max(axis=1)
    f1 = [int(np.argmin(np.abs(ecc_y - ecc_x[i]))) for i in range(n)]
    g1 = [int(np.argmin(np.abs(ecc_x - ecc_y[j]))) for j in range(m)]
    order_x = sorted(range(n), key=lambda i: (float(DX[i].sum()), i))
    order_y = sorted(range(m), key=lambda j: (float(DY[j].sum()), j))
    f2 = [0] * n
    for rank, i in enumerate(order_x):
        f2[i] = order_y[min(m - 1, rank * m // n)]
    g2 = [0] * m
    for rank, j in enumerate(order_y):
        g2[j] = order_x[min(n - 1, rank * n // m)]
    return [(f1, g1), (f2, g2)]


def gh_exact(
    X: FiniteMetricSpace,
    Y: FiniteMetricSpace,
    guard: int = 100_000_000,
) -> tuple[float, Correspondence]:
    """Exact Gromov-Hausdorff distance and a minimizing correspondence.

    Returns (value, witness) with value = distortion(witness) / 2. The
    witness is the union of the graphs of the minimizing pair (f, g),
    lexicographically first among all minimizing pairs. Raises
    GuardExceeded when more than ``guard`` assignments get explored.
    """
    DXa, DYa = X.d, Y.d
    n, m = X.n, Y.n
    DX = [[float(v) for v in row] for row in DXa]
    DY = [[float(v) for v in row] for row in DYa]

    best_val = np.inf
    for f, g in _seed_assignments(DXa, DYa):
        best_val = min(best_val, _pair_value(f, g, DXa, DYa))
    best_wit: tuple[tuple[int, ...], tuple[int, ...]] | None = None

    f_assign = [0] * n
    g_assign = [0] * m
    nodes = 0

    # Forward-check tables: FM[i][j] is the distortion floor if unassigned
    # f-slot i later takes value j, from pairs with assigned f-slots;
    # CR[k][i0] is the same floor for g-slot k taking value i0 from cross
    # pairs with assigned f-slots; GM[k][i0] from pairs with assigned
    # g-slots. Each assignment updates the tables for later slots and
    # abandons the branch when some slot has no value below the bar.
    FM = [[0.0] * m for _ in range(n)]
    CR = [[0.0] * n for _ in range(m)]
    GM = [[0.0] * n for _ in range(m)]

    def blocked(bound: float) -> bool:
        return bound > best_val or (bound == best_val and best_wit is not None)

    def search_g(k: int, partial: float) -> None:
        nonlocal best_val, best_wit, nodes
        if k == m:
            if partial < best_val or best_wit is None:
                best_val = partial
                best_wit = (tuple(f_assign), tuple(g_assign))
            return
        row_cr = CR[k]
        row_gm = GM[k]
        for i0 in range(n):
            nodes += 1
            if nodes > guard:
                raise GuardExceeded(f"gh_exact guard of {guard} assignments exceeded")
            delta = row_cr[i0] if row_cr[i0] > row_gm[i0] else row_gm[i0]
            bound = partial if partial > delta else delta
            if blocked(bound):
                continue
            g_assign[k] = i0
            dxi0 = DX[i0]
            saved_gm = [GM[k2][:] for k2 in range(k + 1, m)]
            dead = False
            for k2 in range(k + 1, m):
                row2 = GM[k2]
                crow2 = CR[k2]
                dyk = DY[k][k2]
                floor = np.inf
                for i2 in range(n):
                    v = dxi0[i2] - dyk
                    if v < 0.0:
                        v = -v
                    if v > row2[i2]:
                        row2[i2] = v
                    eff = row2[i2] if row2[i2] > crow2[i2] else crow2[i2]
                    if eff < floor:
                        floor = eff
                if blocked(bound if bound > floor else floor):
                    dead = True
                    break
            if not dead:
                search_g(k + 1, bound)
            for off, row_copy in enumerate(saved_gm):
                GM[k + 1 + off] = row_copy

    def search_f(i: int, partial: float) -> None:
        nonlocal nodes
        if i == n:
            search_g(0, partial)
            return
        row = FM[i]
        for j in range(m):
            nodes += 1
            if nodes > guard:
                raise GuardExceeded(f"gh_exact guard of {guard} assignments exceeded")
            bound = partial if partial > row[j] else row[j]
            if blocked(bound):
                continue
            f_assign[i] = j
            dxi = DX[i]
            dyj = DY[j]
            saved_fm = [FM[i2][:] for i2 in range(i + 1, n)]
            saved_cr = [CR[k][:] for k in range(m)]
            dead = False
            for i2 in range(i + 1, n):
                row2 = FM[i2]
                dx = dxi[i2]
                floor = np.inf
                for j2 in range(m):
                    v = dx - dyj[j2]
                    if v < 0.0:
                        v = -v
                    if v > row2[j2]:
                        row2[j2] = v
                    if row2[j2] < floor:
                        floor = row2[j2]
                if blocked(bound if bound > floor else floor):
                    dead = True
                    break
            if not dead:
                for k in range(m):
                    rowc = CR[k]
                    dyk = DY[j][k]
                    floor = np.inf
                    for i0 in range(n):
                        v = dxi[i0] - dyk
                        if v < 0.0:
                            v = -v
                        if v > rowc[i0]:
                            rowc[i0] = v
                        if rowc[i0] < floor:
                            floor = rowc[i0]
                    if blocked(bound if bound > floor else floor):
                        dead = True
                        break
            if not dead:
                search_f(i + 1, bound)
            for off, row_copy in enumerate(saved_fm):
                FM[i + 1 + off] = row_copy
            for k in range(m):
                CR[k] = saved_cr[k]

    search_f(0, 0.0)

    if best_wit is None:
        # seeds were optimal but the scan re-finds them; this only happens
        # if everything got pruned at equality, so rerun accepting ties
        raise RuntimeError("internal search failure")  # pragma: no cover
    f_fin, g_fin = best_wit
    pairs = sorted(set((i, f_fin[i]) for i in range(n)) | set((g_fin[j], j) for j in range(m)))
    witness = Correspondence(tuple(pairs))
    return best_val / 2.0, witness


def restrict_metric(G: MetricGraph, A: PointSet) -> FiniteMetricSpace:
    """The finite metric space induced on a point set by the graph metric."""
    if len(A) == 0:
        raise EmptySet("cannot restrict the metric to an empty set")
    d = pairwise_distances(G, A, A)
    d = np.minimum(d, d.T)  # exact symmetry
    np.fill_diagonal(d, 0.0)
    return FiniteMetricSpace._trusted(d)


# --------------------------------------------------------------------------
# isometry testing


def is_isometric(
    X: FiniteMetricSpace,
    Y: FiniteMetricSpace,
    tol: float = _VALIDATION_TOL,
    max_points: int = 4096,
    node_guard: int = 2_000_000,
) -> tuple[bool, tuple[int, ...] | None]:
    """Decide whether two finite spaces are isometric, within tolerance.

    Returns (True, permutation) where permutation[i] is the match of point i,
    or (False, None). Prunes by comparing sorted distance multisets before
    running a permutation backtracking search. Raises GuardExceeded for
    spaces above ``max_points`` or searches above ``node_guard`` expansions.
    """
    if X.n != Y.n:
        return False, None
    n = X.n
    if n > max_points:
        raise GuardExceeded(f"isometry search capped at {max_points} points")
    if n == 1:
        return True, (0,)
    DX, DY = X.d, Y.d
    if abs(np.sort(DX, axis=None) - np.sort(DY, axis=None)).max() > tol:
        return False, None
    sx = np.sort(DX, axis=1)
    sy = np.sort(DY, axis=1)

    # farthest-first order makes each new point tightly constrained
    order = [int(np.argmax(DX.sum(axis=1)))]
    seen = np.zeros(n, dtype=bool)
    seen[order[0]] = True
    mindist = DX[order[0]].copy()
    for _ in range(n - 1):
        mindist[seen] = -1.0
        nxt = int(np.argmax(mindist))
        order.append(nxt)
        seen[nxt] = True
        np.minimum(mindist, DX[nxt], out=mindist)

    mapped_x: list[int] = []
    mapped_y: list[int] = []
    used = np.zeros(n, dtype=bool)
    nodes = 0

    def candidates(x: int) -> list[int]:
        # sorted-row signatures discriminate only before any constraints
        # exist; afterwards the mapped-distance conditions are stronger and
        # each accepted completion has every pair checked exactly once
        if not mapped_x:
            ok = ~used & (np.abs(sy - sx[x][None, :]).max(axis=1) <= tol)
            return [int(y) for y in np.nonzero(ok)[0]]
        rows = np.nonzero(~used)[0]
        dev = np.abs(
            DY[np.ix_(rows, mapped_y)] - DX[x, mapped_x][None, :]
        ).max(axis=1)
        return [int(y) for y in rows[dev <= tol]]

    def extend(depth: int) -> bool:
        nonlocal nodes
        if depth == n:
            return True
        x = order[depth]
        for y in candidates(x):
            nodes += 1
            if nodes > node_guard:
                raise GuardExceeded(f"isometry search exceeded {node_guard} nodes")
            mapped_x.append(x)
            mapped_y.append(y)
            used[y] = True
            if extend(depth + 1):
                return True
            used[y] = False
            mapped_x.pop()
            mapped_y.pop()
        return False

    if extend(0):
        perm = [0] * n
        for x, y in zip(mapped_x, mapped_y):
            perm[x] = y
        return True, tuple(perm)
    return False, None
