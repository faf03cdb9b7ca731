"""Brute-force Gromov-Hausdorff computations on finite metric spaces.

The oracle answers with the exact minimum, not an estimate. For finite
spaces X and Y it is enough to search pairs of maps (f: X -> Y, g: Y -> X):
the relation graph(f) together with the transpose of graph(g) is a
correspondence, and any correspondence contains one of this shape whose
distortion is no larger. The search runs as a depth-first scan over the
(f, g) encoding in lexicographic order with sound lower-bound pruning, so
it returns the same value as full enumeration and, among all minimizers,
the lexicographically first one.

Every assignment is a pair (x, y): f(i) = j is the pair (i, j), g(k) = i
is the pair (i, k). Two pairs are compatible when their distance gap stays
within the best distortion found so far, and the table of compatible pairs
is held as one int per pair, with one bit per pair. A search node's whole
state is the AND of the rows along its path: the pairs still compatible
with every assignment made. An assignment is pruned when some later
variable has no compatible pair left. A work guard caps the number of
explored assignments; when it trips, the error carries the bracket the
search had reached.
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
# gaps per block of the pair-compatibility build, 1 MB of float64
_PAIR_BLOCK_CELLS = 1 << 17


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


def _compatible_rows(DX: np.ndarray, DY: np.ndarray, cap: float, strict: bool) -> list[int]:
    """Row p of the pair-compatibility table at ``cap``, one int per pair.

    Pair p = a*m + b relates a in X to b in Y. Bit q of row p is set when
    |d_X(a_p, a_q) - d_Y(b_p, b_q)| is below ``cap`` (``strict``) or at most
    ``cap``. Rows are built in blocks of about _PAIR_BLOCK_CELLS gaps, or the
    m rows of one point of X for the largest spaces, so no float array of
    all (nm)^2 gaps is ever held.
    """
    n, m = DX.shape[0], DY.shape[0]
    nm = n * m
    step = max(1, _PAIR_BLOCK_CELLS // (m * nm))
    rows: list[int] = []
    for start in range(0, n, step):
        gap = DX[start : start + step, None, :, None] - DY[None, :, None, :]
        np.abs(gap, out=gap)
        ok = gap < cap if strict else gap <= cap
        count = ok.shape[0] * m
        raw = np.packbits(ok.reshape(count, nm), axis=1, bitorder="little")
        width = raw.shape[1]
        raw = raw.tobytes()
        rows.extend(
            int.from_bytes(raw[r * width : (r + 1) * width], "little") for r in range(count)
        )
    return rows


def gh_exact(
    X: FiniteMetricSpace,
    Y: FiniteMetricSpace,
    guard: int = 100_000_000,
) -> tuple[float, Correspondence]:
    """Exact Gromov-Hausdorff distance and a minimizing correspondence.

    Returns (value, witness) with value = distortion(witness) / 2. The
    witness is the union of the graphs of the minimizing pair (f, g),
    lexicographically first among all minimizing pairs. Raises
    GuardExceeded when more than ``guard`` assignments get explored; the
    error's ``bracket`` holds (|diam X - diam Y| / 2, the best value found).
    """
    DXa, DYa = X.d, Y.d
    n, m = X.n, Y.n

    best_val = min(
        distortion(zip([*range(n), *g], [*f, *range(m)]), X, Y) for f, g in _seed_assignments(DXa, DYa)
    )
    # the path of the best leaf; the leaf of the best seed pair passes the
    # first cap, so the search always sets it
    best_path: tuple[int, ...] = ()
    # before the first witness a tie with the seed value is kept, after it
    # only strict improvements are
    C = _compatible_rows(DXa, DYa, best_val, strict=False)

    # Variable v < n is f(v), whose candidates are the pairs (v, j): a block
    # of m bits. Variable n + k is g(k), whose candidates are the pairs
    # (i, k): every m-th bit from bit k. Both scan candidates by increasing p.
    depth = n + m
    full = (1 << (n * m)) - 1
    row = (1 << m) - 1
    column = sum(1 << (i * m) for i in range(n))
    masks = [row << (i * m) for i in range(n)] + [column << k for k in range(m)]
    layout = [(i * m, 1, m) for i in range(n)] + [(k, m, n) for k in range(m)]
    later = [masks[v + 1 :] for v in range(depth)]
    path = [0] * depth
    # alive set of each level along the path of the latest witness; 0 where
    # the path itself is no longer compatible under the new cap
    replayed = [0] * depth
    nodes = 0
    witnesses = 0

    def guard_tripped() -> GuardExceeded:
        floor = abs(float(DXa.max()) - float(DYa.max())) / 2.0
        return GuardExceeded(
            f"gh_exact guard of {guard} assignments exceeded; "
            f"GH distance in [{floor:.12g}, {best_val / 2.0:.12g}]",
            bracket=(floor, best_val / 2.0),
        )

    def improve() -> None:
        nonlocal best_val, best_path, C, witnesses
        # the distortion the search bounds: the gap of each pair on the path
        # with each later one, oriented as the rows of C
        xs, ys = np.divmod(path, m)
        gaps = np.abs(DXa[np.ix_(xs, xs)] - DYa[np.ix_(ys, ys)])
        best_val = max(0.0, float(gaps[np.triu_indices(depth, 1)].max()))
        best_path = tuple(path)
        witnesses += 1
        C = _compatible_rows(DXa, DYa, best_val, strict=True)
        alive = full
        for t, q in enumerate(path):
            replayed[t] = alive
            alive = alive & C[q] if alive >> q & 1 else 0

    def search(v: int, alive: int) -> None:
        # alive: the pairs compatible with every pair on the path so far
        nonlocal nodes
        if v == depth:
            improve()
            return
        base, stride, size = layout[v]
        mask = masks[v]
        checks = later[v]
        cand = alive & mask
        # pruned candidates count as explored assignments too, so the guard
        # counts every candidate up to the current one
        done = -1
        while cand:
            low = cand & -cand
            p = low.bit_length() - 1
            index = (p - base) // stride
            nodes += index - done
            done = index
            if nodes > guard:
                raise guard_tripped()
            nxt = alive & C[p]
            for w in checks:
                if not nxt & w:
                    break
            else:
                path[v] = p
                seen = witnesses
                search(v + 1, nxt)
                if witnesses != seen:
                    alive = replayed[v]
                    cand = (alive & mask) >> (p + 1) << (p + 1)
                    continue
            cand ^= low
        nodes += size - 1 - done
        if nodes > guard:
            raise guard_tripped()

    search(0, full)

    pairs = sorted(set(divmod(p, m) for p in best_path))
    return best_val / 2.0, Correspondence(tuple(pairs))


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
