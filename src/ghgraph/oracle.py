"""Brute-force Gromov-Hausdorff computations on finite metric spaces.

The oracle answers with the exact minimum, not an estimate. For finite
spaces X and Y it is enough to search pairs of maps (f: X -> Y, g: Y -> X):
the relation graph(f) together with the transpose of graph(g) is a
correspondence, and any correspondence contains one of this shape whose
distortion is no larger.

Every assignment is a pair (x, y): f(i) = j is the pair (i, j), g(k) = i
is the pair (i, k). The variables come in the order f(0), ..., f(n-1),
g(0), ..., g(m-1), and a map pair's distortion is the largest gap
|d_X - d_Y| between the pairs of two variables. Two pairs are compatible
under a threshold when their gap is below it, and the table of compatible
pairs is held as one int per pair, with one bit per pair. A search node's
whole state is the AND of the rows along its path: the pairs still
compatible with every one made.

The least distortion t* is one of the gaps, and the search keeps a bracket
[lo, hi] on it: lo starts at the diameter gap, hi at the map pair that
matches the points of X and Y by the rank of their row sums. A decision
search asks whether some map pair has distortion below t. It is a
depth-first search that branches on the unassigned variable with the
fewest compatible assignments left (fail-first: Haralick and Elliott, AI
1980), each count divided by the number of dead ends that variable has
caused (dom/wdeg: Boussemart et al., ECAI 2004), and it prunes a node
when some variable has none left. With t halfway across the bracket, a
"no" raises lo to the least gap at or above t, and a "yes" lowers hi to
the distortion of the map pair found. At t*, the witness is fixed one
variable at a time, each to its first candidate that some completion
keeps at t*: the lexicographically first minimizer, whichever minimizer
the decisions found.

A work guard caps the number of assignments explored, summed over every
search; when it trips, the error carries the bracket reached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptySet, GuardExceeded, InvalidMetric, NotACorrespondence
from .graph import TOLERANCE, MetricGraph, PointSet, pairwise_distances

__all__ = [
    "FiniteMetricSpace",
    "Correspondence",
    "distortion",
    "gh_exact",
    "restrict_metric",
    "is_isometric",
]

# cells per block of the triangle scan, about 16 MB of float64
_TRIANGLE_BLOCK_CELLS = 1 << 21
# gaps per block of the pair-compatibility build, 1 MB of float64
_PAIR_BLOCK_CELLS = 1 << 17


def _checked_axioms(d) -> np.ndarray:
    """A read-only copy of ``d`` after every check but the triangle scan."""
    d = np.asarray(d, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1] or d.shape[0] == 0:
        raise InvalidMetric("distance matrix must be square and non-empty")
    if not np.isfinite(d).all():
        raise InvalidMetric("distance matrix has non-finite entries")
    if np.abs(np.diag(d)).max() > TOLERANCE:
        raise InvalidMetric("diagonal must be zero")
    if d.shape[0] > 1 and np.abs(d - d.T).max() > TOLERANCE:
        raise InvalidMetric("matrix must be symmetric")
    return _kept(d)


def _kept(d: np.ndarray) -> np.ndarray:
    """A read-only copy of ``d`` with the smaller of the two readings of each
    distance and a zero diagonal, once its off-diagonal is checked positive."""
    d = np.minimum(d, d.T)  # a new array, exactly symmetric
    np.fill_diagonal(d, 0.0)
    if d.shape[0] > 1 and d[~np.eye(d.shape[0], dtype=bool)].min() <= 0.0:
        raise InvalidMetric("off-diagonal distances must be positive")
    d.flags.writeable = False
    return d


class FiniteMetricSpace:
    """A finite metric space given by its distance matrix.

    Construction validates the metric axioms: square shape, zero diagonal,
    symmetry, strictly positive off-diagonal entries, and the triangle
    inequality through every middle point, all within a fixed tolerance.
    A matrix that meets these only within the tolerance is kept with the
    smaller of the two readings of each distance and a zero diagonal, so
    ``d`` is exactly symmetric and every computation on the space reads one
    value per pair of points.
    The cubic triangle scan checks that kept matrix, over blocks of middle
    points, so its work arrays stay near 16 MB, or one n x n slab for the
    largest matrices.
    """

    __slots__ = ("d",)

    def __init__(self, d: np.ndarray | Sequence[Sequence[float]]):
        d = _checked_axioms(d)
        n = d.shape[0]
        step = max(1, _TRIANGLE_BLOCK_CELLS // (n * n))
        for start in range(0, n, step):
            ks = slice(start, start + step)
            bad = d[:, ks, None] + d[None, ks, :] + TOLERANCE < d[:, None, :]
            through = np.flatnonzero(bad.any(axis=(0, 2)))
            if through.size:
                raise InvalidMetric(
                    f"triangle inequality fails through point {start + through[0]}"
                )
        self.d = d

    @classmethod
    def _trusted(cls, d: np.ndarray) -> "FiniteMetricSpace":
        """A space whose matrix is a metric by construction, such as a graph
        metric restricted to a point set: finite, with a zero diagonal and
        readings of a distance that differ by rounding only, however large
        the distances are. It is kept as construction keeps a matrix, with
        only the positivity check and no triangle scan."""
        space = cls.__new__(cls)
        space.d = _kept(d)
        return space

    @property
    def n(self) -> int:
        return self.d.shape[0]

    @classmethod
    def from_line(cls, xs: Iterable[float]) -> "FiniteMetricSpace":
        """Space of the distinct points on the real line, in increasing
        order, with the metric |x - y|. That is a metric by construction,
        so every check of construction runs but the triangle scan, which
        could fail only through rounding against the fixed tolerance."""
        arr = np.asarray(sorted(set(float(x) for x in xs)), dtype=float)
        if arr.size == 0:
            raise EmptySet("empty coordinate list")
        if not np.isfinite(arr).all():  # before inf - inf reaches the matrix
            raise InvalidMetric("distance matrix has non-finite entries")
        space = cls.__new__(cls)
        space.d = _checked_axioms(np.abs(arr[:, None] - arr[None, :]))
        return space

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
    return _gap_max(X.d, Y.d, xs, ys)


def _gap_max(DX: np.ndarray, DY: np.ndarray, xs, ys) -> float:
    """The largest |DX[x, x'] - DY[y, y']| over the related pairs (xs[i], ys[i]),
    read over the full matrix: kept matrices are exactly symmetric with zero
    diagonals, so its upper triangle alone holds the same largest gap."""
    xs, ys = np.asarray(xs), np.asarray(ys)
    return float(np.abs(DX[xs[:, None], xs] - DY[ys[:, None], ys]).max())


# --------------------------------------------------------------------------
# exact Gromov-Hausdorff search


def _seed_path(DX: np.ndarray, DY: np.ndarray) -> np.ndarray:
    """The path of the row-sum rank map pair: the point of rank r in row
    sums of X, ties by index, goes to the point of rank r*m//n of Y, and
    the same with X and Y swapped."""
    n, m = DX.shape[0], DY.shape[0]
    # kept matrices are C-contiguous, so each sum along a row adds in the
    # order DX[i].sum() does and gives the same bits
    order_x = np.argsort(DX.sum(axis=1), kind="stable")
    order_y = np.argsort(DY.sum(axis=1), kind="stable")
    f, g = np.empty(n, dtype=int), np.empty(m, dtype=int)
    f[order_x] = order_y[np.arange(n) * m // n]
    g[order_y] = order_x[np.arange(m) * n // m]
    return np.concatenate([np.arange(n) * m + f, g * m + np.arange(m)])


class _PairGaps:
    """The gap between every two pairs, and their compatibility rows.

    Pair p = a*m + b relates a in X to b in Y, bit q of a row stands for
    pair q, and the gap between pairs p and q is
    |d_X(a_p, a_q) - d_Y(b_p, b_q)|. Rows come in blocks of about
    _PAIR_BLOCK_CELLS gaps, or the m rows of one point of X for the largest
    spaces. A table that fits in one block is computed once and kept; a
    larger one is computed again, block by block, for every threshold, so
    no float array of all (nm)^2 gaps is ever held. A kept table also keeps
    its gaps sorted, so the least gap at or above a threshold comes from
    one binary search instead of a scan of the whole table.
    """

    def __init__(self, DX: np.ndarray, DY: np.ndarray):
        self.DX, self.DY = DX, DY
        n, m = DX.shape[0], DY.shape[0]
        self.step = max(1, _PAIR_BLOCK_CELLS // (m * n * m))
        if self.step >= n:
            (self.kept,) = self._blocks()
            self.sorted = np.sort(self.kept, axis=None)
        else:
            self.kept = None

    def _blocks(self):
        DX, DY = self.DX, self.DY
        n, m = DX.shape[0], DY.shape[0]
        for start in range(0, n, self.step):
            gap = DX[start : start + self.step, None, :, None] - DY[None, :, None, :]
            yield np.abs(gap, out=gap).reshape(-1, n * m)

    def rows_below(self, t: float) -> tuple[list[int], float]:
        """The compatibility rows at t, and the least gap at or above t.

        A row's bit is set when the gap between the two pairs is below t.
        """
        if self.kept is not None:
            at = int(np.searchsorted(self.sorted, t))
            least = float(self.sorted[at]) if at < self.sorted.size else math.inf
            return _bit_rows(self.kept < t), least
        rows: list[int] = []
        least = math.inf
        for gaps in self._blocks():
            rows += _bit_rows(gaps < t)
            least = min(least, float(gaps.min(where=gaps >= t, initial=math.inf)))
        return rows, least


def _bit_rows(ok: np.ndarray) -> list[int]:
    """Each row of a boolean array as one int, bit q for column q."""
    raw = np.packbits(ok, axis=1, bitorder="little")
    width = raw.shape[1]
    raw = raw.tobytes()
    return [int.from_bytes(raw[r * width : (r + 1) * width], "little") for r in range(ok.shape[0])]


def _search(X: FiniteMetricSpace, Y: FiniteMetricSpace, guard: int) -> tuple[float, list[int], int]:
    """The least distortion, the pairs of the lexicographically first map
    pair that has it, and the number of assignments explored."""
    DX, DY = X.d, Y.d
    n, m = X.n, Y.n
    nm = n * m
    depth = n + m

    # Variable v < n is f(v), whose candidates are the pairs (v, j): a block
    # of m bits. Variable n + k is g(k), whose candidates are the pairs
    # (i, k): every m-th bit from bit k. A path holds each variable's pair.
    full = (1 << nm) - 1
    row = (1 << m) - 1
    column = sum(1 << (i * m) for i in range(n))
    masks = [row << (i * m) for i in range(n)] + [column << k for k in range(m)]
    path = [0] * depth
    # dead ends caused per variable: the branching rule divides candidates by it
    weight = [1] * depth
    nodes = 0

    def guard_tripped() -> GuardExceeded:
        return GuardExceeded(
            f"gh_exact guard of {guard} assignments exceeded; "
            f"GH distance in [{lo / 2.0:.12g}, {hi / 2.0:.12g}]",
            bracket=(lo / 2.0, hi / 2.0),
        )

    def distortion_of(p: list[int]) -> float:
        return _gap_max(DX, DY, *np.divmod(np.array(p), m))

    # The least distortion lies in [lo, hi]: lo is proven, hi is the
    # distortion of the map pair on the path ``best``. lo starts at the
    # diameter gap: both ends of a diameter of X are the X side of some
    # variable's pair, so some gap reads that distance against an entry of
    # DY, and the same holds with X and Y swapped. hi starts at the map
    # pair that matches points by the rank of their row sums.
    lo = abs(float(DX.max()) - float(DY.max()))
    best = _seed_path(DX, DY).tolist()
    hi = distortion_of(best)
    gaps = _PairGaps(DX, DY)

    def extends(C: list[int], alive: int, free: tuple[int, ...]) -> bool:
        # alive: the pairs compatible with every one on the path; free:
        # the unassigned variables. True when the path completes, with the
        # completion left on it.
        nonlocal nodes
        if not free:
            return True
        fewest = math.inf
        for at, w in enumerate(free):
            count = (alive & masks[w]).bit_count()
            if not count:
                weight[w] += 1
                return False
            if count < fewest * weight[w]:
                fewest, pick = count / weight[w], at
        v = free[pick]
        rest = free[:pick] + free[pick + 1 :]
        cand = alive & masks[v]
        while cand:
            low = cand & -cand
            nodes += 1
            if nodes > guard:
                raise guard_tripped()
            p = low.bit_length() - 1
            path[v] = p
            if extends(C, alive & C[p], rest):
                return True
            cand ^= low
        return False

    while lo < hi:
        t = (lo + hi) / 2.0
        if t <= lo:  # hi is the next float above lo
            t = hi
        C, least = gaps.rows_below(t)
        if extends(C, full, tuple(range(depth))):
            hi = distortion_of(path)
            best = path[:]
        else:
            lo = least

    # The lexicographically first map pair at hi, one variable at a time:
    # the first candidate that some completion of the prefix keeps at hi is
    # fixed, and ``best`` moves to that completion. The candidate in
    # ``best`` itself needs no search.
    C, _ = gaps.rows_below(math.nextafter(hi, math.inf))
    alive = full
    for v in range(depth):
        cand = alive & masks[v] & ((2 << best[v]) - 1)
        while cand:
            low = cand & -cand
            nodes += 1
            if nodes > guard:
                raise guard_tripped()
            p = low.bit_length() - 1
            path[v] = p
            if p == best[v]:
                break
            if extends(C, alive & C[p], tuple(range(v + 1, depth))):
                best = path[:]
                break
            cand ^= low
        alive &= C[best[v]]
    return hi, best, nodes


def gh_exact(
    X: FiniteMetricSpace,
    Y: FiniteMetricSpace,
    guard: int = 100_000_000,
) -> tuple[float, Correspondence]:
    """Exact Gromov-Hausdorff distance and a minimizing correspondence.

    Returns (value, witness) with value = distortion(witness) / 2. The
    witness is the union of the graphs of the minimizing pair (f, g) that
    comes first in lexicographic order of (f(0), ..., f(n-1), g(0), ...,
    g(m-1)), so it does not depend on how the minimum was found.

    ``guard`` caps the assignments explored, summed over every decision
    search and the witness scan. Beyond it GuardExceeded is raised, and its
    ``bracket`` holds (lower, upper): half a proven lower bound on the
    distortion of every map pair (at least half the diameter gap), and half
    the distortion of the best map pair found.
    """
    value, path, _ = _search(X, Y, guard)
    return value / 2.0, Correspondence(tuple(divmod(p, Y.n) for p in sorted(set(path))))


def restrict_metric(G: MetricGraph, A: PointSet) -> FiniteMetricSpace:
    """The finite metric space induced on a point set by the graph metric."""
    if len(A) == 0:
        raise EmptySet("cannot restrict the metric to an empty set")
    return FiniteMetricSpace._trusted(pairwise_distances(G, A, A))


# --------------------------------------------------------------------------
# isometry testing


def is_isometric(
    X: FiniteMetricSpace,
    Y: FiniteMetricSpace,
    tol: float = TOLERANCE,
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
