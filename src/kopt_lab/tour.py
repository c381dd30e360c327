"""Tours, 2-Opt/3-Opt local search, k-optimality checks, exact small solvers.

Everything is parametrized by the instance's distance oracle, so 2-D p-norm
instances and 3-D Euclidean instances share the same engine.  A `Tour`
keeps the form it was built from: a tuple from any sequence, or a read-only
int ring array from an ndarray; the other form is built on first use and
kept.  Each entry point checks its tour once, by `Tour.validate`, which
returns the tour's ring array (a tuple-born tour's is built by the first
check); the engines below take that ring.  `tour_length` adds the edges
left to right from position 0, by `np.add.accumulate` on a numeric edge
array and by an explicit fold otherwise.  Every distance computed
from the coordinate arrays instead comes from one backend keyed on the
norm, `_CoordinateDistances`: p = 1, and p = 2 on exact squares.  One
vectorized 2-move engine serves 2-Opt, the 2-optimality verdict and the
lower-bound family's exhaustive scan: a `_TourState` owns one fixed layout
(two flat work arrays, a flat bool array and a shared gain bound), and
`_first_2move` and `_dense_best` walk its blocks of `_block_rows` rows
through one gain step, `_block_gains`.  Each distance backend lays out a
block's distances as 2-D views (`scan_block`); on a matrix state block 0
is whole rows of the ring matrix.  Block 0's views (`_ScanBlock`) are made
once, with the state, so that a scan of it only computes into the work
arrays; each later block's are made as the walk reaches it.  An n x n
distance matrix is built only up to `MATRIX_SCAN_MAX_N`.  On integer
instances too large for one scan block, the two verdicts examine only the
pairs that a grid index over the coordinates finds (`_GridTour`), with the
engine's arithmetic and the same results.  One vectorized orientation-sign
filter (`_candidate_pairs`) walks the pairs of the edges of its rings laid
end to end: the simplicity test passes one ring, and the crossing search
makes one pass over both tours' edges for both simplicity checks and the
T x S candidates.  One loop (`_first_intersecting`) turns candidates into a
simplicity witness.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from functools import cache, cached_property, lru_cache
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .geometry import (
    Disjoint,
    PNorm,
    Point,
    Point3,
    SQUARE_SPAN,
    Segment,
    SharedEndpoint,
    pdist,
    pdist3,
    segment_relation,
)

DEFAULT_GAIN_EPS = 1e-9
# Largest n that Held-Karp (exact_opt) accepts.
EXACT_MAX_N = 18
# Upper bound on the cells of one block: (mask, c, u) candidates of Held-Karp,
# edge pairs of the orientation-sign filter, rows of squares of a Euclidean
# matrix.  The 2-move scan sizes its blocks in bytes, the same _BLOCK_CELLS * 8
# bytes a work array, so a narrower dtype gets more cells a block (`_block_rows`).
_BLOCK_CELLS = 1 << 15
# Largest n for which `Instance._pair_dist` builds an n x n distance matrix: its
# float64 matrix and a scan's ring-ordered copy take 3.2 GB each here.
MATRIX_SCAN_MAX_N = 20000
# Coordinate span below which `Instance._xy` gives int64: every product of two
# coordinate differences stays below 2**62 (orientation signs), and every 1-norm
# distance below 2**32, so a sum of a few, a 2-move gain or a Held-Karp tour of
# at most EXACT_MAX_N edges, stays far inside int64.
_INT64_SPAN = 1 << 31


class Instance:
    """A finite set of distinct points plus a norm; the distance oracle."""

    # The int64 coordinate arrays of an instance built by `from_xy`; None for
    # one built from its points.
    _columns: Optional[tuple] = None
    # The instance that `extended` built this one from, whose points are this
    # one's first points; None for any other instance.
    _prefix: Optional[Instance] = None

    def __init__(self, points: Sequence, norm: PNorm = PNorm(2), name: str = ""):
        points = list(points)
        if len(set(points)) != len(points):
            raise ValueError("instance points must be pairwise distinct")
        self.points = points
        self.n = len(points)
        self.norm = norm
        self.name = name
        self.dim = 3 if points and isinstance(points[0], Point3) else 2
        if self.dim == 3 and not norm.is_two:
            raise ValueError("3-D instances support the Euclidean norm only")
        # Exact arithmetic applies for the 1-norm: ints or Fractions, threshold 0.
        self.exact = self.dim == 2 and norm.is_one

    @classmethod
    def from_xy(cls, xs, ys, norm: PNorm = PNorm(2), name: str = "") -> Instance:
        """A 2-D instance on integer coordinate arrays, without building its points.

        Keeps read-only int64 copies of the arrays, which `_xy` reads; the
        `points` are built from them only when something reads them.  The
        points must be pairwise distinct, as for `Instance(points)`; one
        lexsort over (x, y) checks it, gathering one axis at a time.
        """
        xs, ys = np.asarray(xs), np.asarray(ys)
        if xs.ndim != 1 or xs.shape != ys.shape:
            raise ValueError("from_xy needs two 1-D coordinate arrays of one length")
        if not (np.can_cast(xs.dtype, np.int64) and np.can_cast(ys.dtype, np.int64)):
            raise ValueError(f"from_xy needs integer coordinates, got {xs.dtype} and {ys.dtype}")
        xs, ys = np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64)
        order = np.lexsort((ys, xs))
        sx = xs[order]
        same = sx[1:] == sx[:-1]
        del sx
        sy = ys[order]
        same &= sy[1:] == sy[:-1]
        if same.any():
            raise ValueError("instance points must be pairwise distinct")
        xs.flags.writeable = ys.flags.writeable = False
        inst = cls.__new__(cls)
        inst._columns = (xs, ys)
        inst.n, inst.norm, inst.name, inst.dim = len(xs), norm, name, 2
        inst.exact = norm.is_one
        return inst

    @cached_property
    def points(self) -> list:
        """The points as int-field `Point`s, built on first use (`from_xy` instances only).

        `Instance(points)` sets this attribute itself.
        """
        xs, ys = (col.tolist() for col in self._columns)
        return list(map(tuple.__new__, itertools.repeat(Point), zip(xs, ys)))

    def extended(self, points: Sequence, name: str = "") -> Instance:
        """This instance's points followed by `points`, in the same norm.

        If the new instance needs an n x n matrix of `dist`, it copies this
        instance's matrix into its top-left block, so that only the rows and
        columns of the new points call `dist`.
        """
        inst = Instance(self.points + list(points), self.norm, name)
        inst._prefix = self
        return inst

    def dist(self, i: int, j: int):
        if self.dim == 3:
            return pdist3(self.points[i], self.points[j])
        return pdist(self.norm, self.points[i], self.points[j])

    def segment(self, i: int, j: int) -> Segment:
        return Segment(self.points[i], self.points[j])

    @cached_property
    def _exact_squares(self) -> bool:
        """Whether p = 2 distances are sqrt(dx^2 + dy^2) over exact int64 squares.

        True for a 2-D Euclidean instance whose `_xy` is int64 and whose two
        spans are below `SQUARE_SPAN`: then `pdist` takes that square root
        for every pair, and numpy computes the same doubles.
        """
        if self.dim != 2 or not self.norm.is_two:
            return False
        x, y = self._xy
        return x.dtype == np.int64 and max(int(x.max(initial=0)), int(y.max(initial=0))) < SQUARE_SPAN

    @cached_property
    def _coordinates(self) -> Optional[_CoordinateDistances]:
        """The `_CoordinateDistances` over `_xy` in index order, kept on the instance; None if it does not apply.

        It applies in 2-D under p = 1, integral or rational, and under p = 2
        with `_exact_squares`, and its distances equal `dist` in value and type.
        """
        if self.dim == 2 and (self.norm.is_one or self._exact_squares):
            return _CoordinateDistances(*self._xy, self.norm.is_two)
        return None

    @cached_property
    def _pair_dist(self):
        """The values of `dist` for numpy, over the vertices in index order.

        Built on first use and kept on the instance; the 2-move engine and
        Held-Karp read it, and `take` re-indexes it by tour position.  Under
        p = 1 it is the `_coordinates` backend itself (O(n)): its `root` is
        the identity, so a scan computes no roots.  Every other instance
        keeps an n x n float64 matrix (`_MatrixDistances`, 8 n^2 bytes) equal
        bit for bit to `dist`.  With `_exact_squares` it comes from the
        backend's `outer`, a block of at most `_BLOCK_CELLS` cells at a time
        and with no `pdist` call.  Otherwise each entry is `dist` itself,
        except that an instance from `extended` copies its prefix's matrix
        and calls `dist` only on its new rows.  The matrix is limited to
        n <= MATRIX_SCAN_MAX_N: a larger instance raises ValueError before
        anything is allocated or any distance computed, so every dense scan
        (`two_opt`, either verdict) refuses it rather than build gigabytes.
        """
        coordinates = self._coordinates
        if coordinates is not None and not coordinates.square:
            return coordinates
        n = self.n
        if n > MATRIX_SCAN_MAX_N:
            raise ValueError(f"an n x n distance matrix is limited to n <= {MATRIX_SCAN_MAX_N}, got n = {n}")
        matrix = np.empty((n, n))
        if coordinates is not None:
            step = max(1, _BLOCK_CELLS // max(n, 1))
            for i0 in range(0, n, step):
                matrix[i0 : i0 + step] = coordinates.outer(slice(i0, i0 + step), slice(None))
            return _MatrixDistances(matrix)
        known = 0
        if self._prefix is not None:
            known = self._prefix.n
            matrix[:known, :known] = self._prefix._pair_dist.matrix
        for i in range(known, n):
            for j in range(i + 1):  # j = i is read by the scan's masked-out pairs
                matrix[i, j] = matrix[j, i] = self.dist(i, j)
        return _MatrixDistances(matrix)

    @cached_property
    def _grid(self) -> _GridIndex:
        """The fixed-radius index over `_xy` that the 2-optimality verdicts query (`_indexed_scan`).

        Built on first use and kept on the instance, as `_pair_dist` is, so
        every verdict on the instance shares its grid levels.
        """
        return _GridIndex(*self._xy)

    @cached_property
    def _xy(self):
        """The 2-D coordinates as two numpy arrays: the one place they become arrays.

        Built on first use and kept on the instance, by `_coordinate_arrays`
        from the `from_xy` arrays or else from the points.
        """
        columns = self._columns
        if columns is None:
            columns = [[p[k] for p in self.points] for k in (0, 1)]
        return _coordinate_arrays(*columns)


def _coordinate_arrays(xs, ys) -> tuple:
    """The dtype rule of `Instance._xy`, on two coordinate columns.

    A column is an int64 array (`Instance.from_xy`) or a list of the
    points' int or Fraction coordinates.  The result is int64, each column
    shifted to start at 0, when every coordinate is an integer and both
    spans are below `_INT64_SPAN`; a read-only array that already starts at
    0 is returned as it is, not copied.  Otherwise it is object arrays of
    the coordinates themselves, unshifted, so that a difference, distance
    or gain equals that of `pdist` in value and type.
    """
    shifted = []
    for col in (xs, ys):
        if isinstance(col, np.ndarray):
            lo, hi = (int(col.min()), int(col.max())) if len(col) else (0, 0)
            if hi - lo >= _INT64_SPAN:
                break
            shifted.append(col if lo == 0 and not col.flags.writeable else col - lo)
        else:
            if not all(c.denominator == 1 for c in col):
                break
            lo, hi = min(col, default=0), max(col, default=0)
            if hi - lo >= _INT64_SPAN:
                break
            shifted.append(np.array([int(c - lo) for c in col], dtype=np.int64))
    else:
        return tuple(shifted)
    return tuple(np.array(col, dtype=object) for col in (xs, ys))


def _scan_dtype(x: np.ndarray, y: np.ndarray) -> np.dtype:
    """The narrowest signed integer dtype in which the 2-move engine's sums over x, y are exact.

    For int64 coordinates, which `_xy` shifts to start at 0 so that each
    axis's largest value is its span, let D be the sum of the two spans.
    Every 1-norm distance is at most D and every sum of two distances, or
    gain (c_ab + c_xy) - c_ax - c_by, lies in [-2D, 2D]; so the dtype is
    int16 while D < 2^14 and int32 while D < 2^30, else int64, and the
    dtype's minimum stays below every gain.  Object coordinates keep their
    dtype.
    """
    if x.dtype != np.int64:
        return x.dtype
    span = int(x.max(initial=0)) + int(y.max(initial=0))
    for dtype, bound in ((np.int16, 1 << 14), (np.int32, 1 << 30)):
        if span < bound:
            return np.dtype(dtype)
    return x.dtype


class _MatrixDistances:
    """Distances between positions as a matrix: matrix[k, l] = dist(v_k, v_l).

    v_k is the vertex at position k: the vertex k itself in the instance's
    cache, or the k-th vertex of a tour's ring, (n + 1) x (n + 1), in a
    `_TourState`.  `edge[k]` = matrix[k, k + 1] is a contiguous copy of
    the edges, followed by three zeros that the wrapped columns of a scan's
    block 0 read (`scan_block`).
    """

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix
        self.diagonal = matrix.diagonal(1)  # a view, read by `reverse`
        self.edge = np.zeros(len(matrix) + 2)
        self.edge[: len(self.diagonal)] = self.diagonal

    def take(self, positions: np.ndarray) -> _MatrixDistances:
        """The distances between the given positions, in their order (a copy)."""
        return _MatrixDistances(self.matrix[positions[:, None], positions])

    def outer(self, rows: slice, cols: slice) -> np.ndarray:
        """d(rows[a], cols[b]) at [a, b]: a view of the matrix."""
        return self.matrix[rows, cols]

    def scan_block(self, i0: int, i1: int, buffers: tuple) -> tuple:
        """(fill, near, far) of the 2-move scan's rows i0..i1-1: views of the matrix, which `reverse` keeps current.

        So fill is None, and the buffers go unused.  A later block's near
        and far are the strided slices d(i, j) and d(i + 1, j + 1) over
        columns j = i0 + 2 .. n - 1.  Block 0 is whole rows, W = len(matrix)
        wide: near is the matrix's flat cells from 2 and far those from
        W + 3, each i1 x W and C-contiguous.  near[i, c] = d(i, 2 + c) and
        far[i, c] = d(i + 1, 3 + c) while 3 + c < W; the other 3 cells of
        each row wrap onto the next row.
        """
        if i0:
            r = self.matrix[i0 : i1 + 1, i0 + 2 :]
            return None, r[:-1, :-1], r[1:, 1:]
        width = len(self.matrix)
        flat, cells = self.matrix.ravel(), i1 * width
        near, far = flat[2 : 2 + cells], flat[width + 3 : width + 3 + cells]
        return None, near.reshape(i1, width), far.reshape(i1, width)

    def reverse(self, lo: int, hi: int):
        """Reverse positions lo..hi-1 in place, 0 < lo < hi < len(matrix): the rows, the columns, then the edges, O(n (hi - lo))."""
        m = self.matrix
        m[lo:hi] = m[lo:hi][::-1]
        m[:, lo:hi] = m[:, lo:hi][:, ::-1]
        # Edges lo - 1 .. hi - 1 are those with an end among the reversed positions.
        self.edge[lo - 1 : hi] = self.diagonal[lo - 1 : hi]


class _CoordinateDistances:
    """Distances between positions computed from their 2-D coordinates: the one rule, keyed on the norm.

    Two kernels make every distance.  `power` is exact: |dx| + |dy| under
    p = 1, and dx^2 + dy^2 under p = 2 (`square`).  `root` is the identity
    under p = 1 and `np.sqrt` under p = 2, which on `Instance._exact_squares`
    coordinates gives the doubles `pdist` computes.  O(n) memory: no matrix
    is kept.  The instance's copy (`Instance._coordinates`) holds `_xy` in
    index order; `take` gives copies in tour-ring order, the only ones with
    edges: `edge[k]` is the distance from position k to position k + 1.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, square: bool):
        self.x, self.y, self.square = x, y, square

    def power(self, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
        """|dx| + |dy|, or dx^2 + dy^2 under `square`, computed into dx and returned; dy is overwritten."""
        if self.square:
            dx *= dx
            dx += np.multiply(dy, dy, out=dy)
        else:
            np.abs(dx, out=dx)
            dx += np.abs(dy, out=dy)
        return dx

    def root(self, power: np.ndarray) -> np.ndarray:
        """The distances whose `power` this is: the array itself, or a new float64 array under `square`."""
        return np.sqrt(power) if self.square else power

    def pair(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """D(position a, position b) over index arrays of positions, computed in the gathers of a."""
        dx, dy = self.x[a], self.y[a]
        dx -= self.x[b]
        dy -= self.y[b]
        return self.root(self.power(dx, dy))

    def dtype(self) -> np.dtype:
        """The dtype of a dense scan's distances: `_scan_dtype`'s under p = 1, float64 under p = 2."""
        return np.dtype(np.float64) if self.square else _scan_dtype(self.x, self.y)

    def take(self, positions: np.ndarray) -> _CoordinateDistances:
        """The distances between the given positions, in their order (a copy), with its edges.

        Under p = 1 int64 coordinates are narrowed to `_scan_dtype`'s
        dtype; object coordinates, and the int64 of exact squares, stay.
        """
        x, y = self.x[positions], self.y[positions]
        if not self.square:
            dtype = _scan_dtype(self.x, self.y)
            x, y = x.astype(dtype, copy=False), y.astype(dtype, copy=False)
        ring = _CoordinateDistances(x, y, self.square)
        ring.edge = ring.root(ring.power(x[:-1] - x[1:], y[:-1] - y[1:]))
        return ring

    def outer(self, rows: slice, cols: slice) -> np.ndarray:
        """d(rows[a], cols[b]) at [a, b], a new array."""
        x, y = self.x, self.y
        return self.root(self.power(x[rows, None] - x[None, cols], y[rows, None] - y[None, cols]))

    def scan_block(self, i0: int, i1: int, buffers: tuple) -> tuple:
        """(fill, near, far) of the 2-move scan's rows i0..i1-1 under p = 1, columns j = i0 + 2 .. n - 1.

        fill() computes `outer` of positions i0..i1 against i0 + 2 .. n
        into the front of the first buffer, overwriting the second's
        front, and near and far are that array less its last, or first,
        row and column.  fill reads views of x and y, which `reverse` keeps
        current, so one (fill, near, far) serves every scan.
        """
        x, y = self.x, self.y
        rows, cols = slice(i0, i1 + 1), slice(i0 + 2, None)
        xr, xc, yr, yc = x[rows, None], x[None, cols], y[rows, None], y[None, cols]
        shape = len(xr), xc.size
        cells = shape[0] * shape[1]
        out, scratch = buffers[0][:cells].reshape(shape), buffers[1][:cells].reshape(shape)

        def fill():
            self.power(np.subtract(xr, xc, out=out), np.subtract(yr, yc, out=scratch))

        return fill, out[:-1, :-1], out[1:, 1:]

    def reverse(self, lo: int, hi: int):
        """Reverse positions lo..hi-1 in place, 0 < lo < hi < len(x), and their edges, O(hi - lo)."""
        x, y = self.x, self.y
        x[lo:hi] = x[lo:hi][::-1]
        y[lo:hi] = y[lo:hi][::-1]
        # Edges lo - 1 .. hi - 1 are those with an end among the reversed positions.
        dx, dy = x[lo - 1 : hi] - x[lo : hi + 1], y[lo - 1 : hi] - y[lo : hi + 1]
        self.edge[lo - 1 : hi] = self.root(self.power(dx, dy))


class Tour:
    """An oriented cycle given as a permutation of vertex indices; immutable.

    It keeps the form it was built from.  Any sequence is kept as a tuple;
    an ndarray is copied once into a read-only ring array (`validate`), so
    the caller's array may change afterwards.  The other form is built on
    first use and kept: `validate` closes a tuple into its ring, and
    `order` reads an array-born tour's ring into a tuple of Python ints.
    Constructing never checks; `validate` does.  Two tours are equal, and
    hash alike, when their entries are equal sequences, whatever their form.
    """

    __slots__ = ("_order", "_ring")

    def __init__(self, order: Sequence | np.ndarray = ()):
        if type(order) is tuple:
            self._order, self._ring = order, None
        elif isinstance(order, np.ndarray):
            self._ring = self._closed(order)  # `_order` stays unset until `order` is read
        else:
            self._order, self._ring = tuple(order), None

    # A C-level getter: the kept tuple is read as fast as a field.  An unset
    # `_order` (an array-born tour) falls through to `__getattr__`.
    order = property(operator.attrgetter("_order"), doc="The entries as a tuple, built on first use and kept.")

    def __getattr__(self, name: str):
        if name != "order":
            raise AttributeError(f"'Tour' object has no attribute {name!r}")
        order = self._order = tuple(self._ring[:-1].tolist())
        return order

    @property
    def n(self) -> int:
        ring = self._ring
        return len(self._order) if ring is None else max(len(ring) - 1, 0)

    def entries(self) -> Sequence:
        """The entries as Python values: the kept tuple, else a list read from the ring and not kept."""
        try:
            return self._order
        except AttributeError:  # array-born, its tuple not built
            return self._ring[:-1].tolist()

    def edges(self) -> list:
        """The directed edges (o[k], o[k + 1]) for k = 0..n-1, the last back to o[0]."""
        o = self.entries()
        return list(zip(o, o[1:] + o[:1]))

    def __eq__(self, other):
        if not isinstance(other, Tour):
            return NotImplemented
        mine, theirs = self.entries(), other.entries()
        return mine == theirs if type(mine) is type(theirs) else list(mine) == list(theirs)

    def __hash__(self):
        return hash(tuple(self.entries()))

    def __repr__(self):
        return f"Tour(order={tuple(self.entries())!r})"

    def __reduce__(self):
        # Copies and pickles are rebuilt by the constructor, so their rings are read-only too.
        try:
            return Tour, (self._order,)
        except AttributeError:
            return Tour, (self._ring[:-1],)

    @staticmethod
    def _closed(order: tuple | np.ndarray) -> np.ndarray:
        """The ring of either form: its entries at positions 0..n, position n being position 0 again, read-only."""
        if isinstance(order, np.ndarray):
            ring = np.concatenate((order, order[:1]))
        else:
            ring = np.array(order + order[:1], dtype=None if order else np.intp)  # np.array(()) is float
        ring.setflags(write=False)
        return ring

    def validate(self, inst: Instance) -> np.ndarray:
        """The tour's vertices at ring positions 0..n (position n is position 0 again), a read-only int array.

        The one permutation check: ValueError unless one `bincount` of the n
        entries fills each of the bins 0..n-1.  It raises on a non-int entry
        (1.0 equals 1 but is no index), a negative one or one too large to
        count to, and an entry >= n adds a bin past n - 1.  The empty tour of
        an empty instance passes, with an empty ring.  The count is made on
        every call; a tuple-born tour's ring is built on the first and kept.
        """
        ring = self._ring
        if ring is None:
            ring = self._ring = self._closed(self._order)
        entries, n = ring[:-1], inst.n
        try:
            ok = (len(entries) == n
                  and len(counts := np.bincount(entries, minlength=n)) == n
                  and np.count_nonzero(counts) == n)
        except (TypeError, ValueError, MemoryError):
            ok = False
        if not ok:
            raise ValueError("tour is not a permutation of the instance vertices")
        return ring


class TwoMove(NamedTuple):
    """Replace directed tour edges at positions i < j; reverses the middle segment."""

    i: int
    j: int
    gain: float


def tour_length(inst: Instance, t: Tour):
    """The sum of `inst.dist` over the tour's edges, added left to right from position 0.

    Both paths walk the ring of `Tour.validate`.  An instance with the
    `_coordinates` backend computes the edges from the coordinates in ring
    order, in the value and type of `dist`: int64 under p = 1, the doubles
    `pdist` computes under p = 2, and ints and Fractions in an object array
    over rational points.  `np.add.accumulate` adds a numeric array in
    order; an object array and the other instances, which fold `inst.dist`
    edge by edge, take `_left_fold`.  Python's `sum` is not used: from 3.12
    on it compensates a float sum, which gives another value.
    """
    # Cached arrays before the ring: the other order left a 74,190-point length 0.5 MB more peak RSS.
    coordinates = inst._coordinates
    ring = t.validate(inst)
    if coordinates is not None:
        edges = coordinates.pair(ring[:-1], ring[1:])
        if edges.dtype.kind == "O":
            return _left_fold(edges.tolist())
        return np.add.accumulate(edges, out=edges).item(-1) if len(edges) else 0
    o = ring.tolist()
    return _left_fold(inst.dist(a, b) for a, b in zip(o, o[1:]))


def _left_fold(values):
    """0 + v0 + v1 + ..., added left to right."""
    return functools.reduce(operator.add, values, 0)


def _gain_threshold(inst: Instance, removed):
    """A move improves iff its gain exceeds this; `removed` may be a numpy array."""
    return 0 if inst.exact else DEFAULT_GAIN_EPS * removed


def _block_rows(n: int, dtype: np.dtype) -> int:
    """Rows of a 2-move scan block over a tour of n vertices whose state has this dtype.

    The blocks are sized in bytes: a block's rows x n cells take at most
    `_BLOCK_CELLS` * 8 bytes, 2^15 cells of float64, int64 and object,
    2^16 of int32 and 2^17 of int16.  At least one row, and at most the
    n - 2 rows that have a partner.
    """
    return max(1, min(n - 2, _BLOCK_CELLS * 8 // dtype.itemsize // max(n, 1)))


@lru_cache(maxsize=32)
def _scan_bound(n: int, rows: int, width: int, dtype: np.dtype) -> np.ndarray:
    """The read-only bound that a 2-move scan block of `rows` rows over n vertices, `width` columns, tests its gains against.

    A move can improve only where its gain is positive, so the bound is 0
    on the cells that hold a pair, and on every other cell a value that no
    gain exceeds: +inf in float64 and object, the dtype's maximum in an
    integer dtype.  One `np.greater` against it thus marks the pairs of
    positive gain, and `bound > 0` marks the cells that hold no pair.
    Row i0 + r against column j0 + c = i0 + 2 + c is a pair with j >= i + 2
    iff c >= r, in every block, and block i0 reads bound[: i1 - i0, : n - j0];
    only block 0 reaches the last column, which holds the adjacent pair
    (0, n - 1) in its first row.  The width is block 0's, as its backend
    lays it out (`scan_block`): n - 2 columns of a coordinate state, and
    n + 1 of a matrix state's whole rows, whose last three columns hold no
    pair.  It depends on its arguments alone, so the last few bounds are
    kept and shared by every tour of that size and dtype.
    """
    pair = np.arange(width) >= np.arange(rows)[:, None]
    pair[:, max(n - 2, 0) :] = False  # columns past j = n - 1
    pair[0, max(n - 3, 0) :] = False  # (0, n - 1); no column at all below n = 3
    bound = np.full((rows, width), np.iinfo(dtype).max if dtype.kind == "i" else np.inf, dtype)
    bound[pair] = 0
    bound.flags.writeable = False
    return bound


class _ScanBlock(NamedTuple):
    """The views of one 2-move scan block: its pairs (i, j) = (i0 + r, j0 + c), j0 = i0 + 2, in rows x width cells.

    Every view has the block's shape, or broadcasts to it, and a hit at
    flat index k is the cell divmod(k, width).  The backend's `scan_block`
    lays out `fill`, `near` and `far`: `fill`, unless None, computes the
    block's distances into the state's work arrays; then near[r, c] =
    d(i, j) and far[r, c] = d(i + 1, j + 1) for every pair.  `tails` and
    `heads` are the edge views edge[i0:i1, None] and edge[None, j0:j0 +
    width], whose sum goes into `gain`.  `gain` and `spare` are contiguous
    fronts of the work arrays, and so is `threshold` on a non-exact
    instance, which only `_dense_best` fills; it is None on an exact one.
    `bound` is the block's slice of the state's `_scan_bound`.
    """

    fill: Optional[Callable[[], None]]
    near: np.ndarray
    far: np.ndarray
    tails: np.ndarray
    heads: np.ndarray
    gain: np.ndarray
    threshold: Optional[np.ndarray]
    bound: np.ndarray
    spare: np.ndarray


class _TourState:
    """One tour as the 2-move engine sees it, kept in step with the tour as 2-Opt moves it.

    Built from the ring of `Tour.validate`: `dist` holds the distances
    between the tour's ring positions 0..n (position n is position 0
    again), gathered once from the instance's cache, and their edge
    array; `reverse` then follows each applied move in place, so every
    view of `dist` stays current.  A scan block is `rows` rows of pairs
    (`_block_rows`), laid out by the backend's `scan_block` as 2-D views,
    and `bound` the gain bound that its pairs share (`_scan_bound`), as
    wide as block 0.  The state's own work arrays are flat and reused by
    every block: `buffers`, two arrays of `dist`'s dtype of (rows + 1) x
    (n + 1) cells, and `flags`, a bool array of bound's size.  The second
    buffer holds the gains; the first holds a coordinate state's distances
    or the threshold of a matrix state's best-gain scan, since a matrix
    state reads its distances in place and a coordinate state is 1-norm,
    hence exact.  `first` is block 0's `_ScanBlock`, built here: every
    view a scan of block 0 reads, made once for the life of the state, so
    that such a scan only computes, through `out=`.  Every later block's
    views are made by `block` as a scan reaches it.
    """

    def __init__(self, inst: Instance, ring: np.ndarray):
        n = self.n = inst.n
        self.dist = inst._pair_dist.take(ring)
        dtype = self.dist.edge.dtype
        self.exact = inst.exact
        self.rows = _block_rows(n, dtype)
        cells = (self.rows + 1) * (n + 1)
        self.buffers = np.empty(cells, dtype), np.empty(cells, dtype)
        fill, near, far = self._layout(0)
        self.bound = _scan_bound(n, self.rows, near.shape[1], dtype)
        self.flags = np.empty(self.bound.size, bool)
        self.first = self._views(0, fill, near, far)
        # The first rows of the blocks, in scan order: a triangle has no pair, rows i > n - 3 no partner.
        self.starts = range(0, n - 2 if n > 3 else 0, self.rows)

    def _layout(self, i0: int) -> tuple:
        """The backend's (fill, near, far) of the block whose first row is i0."""
        # Clamped at 0 rows: a state below n = 3 has an empty block 0.
        return self.dist.scan_block(i0, max(i0, min(i0 + self.rows, self.n - 2)), self.buffers)

    def _views(self, i0: int, fill, near: np.ndarray, far: np.ndarray) -> _ScanBlock:
        """The `_ScanBlock` of the block from row i0 whose distances these are: its other views take near's shape."""
        rows, width = shape = near.shape
        cells = rows * width
        edge = self.dist.edge
        bound = self.bound if shape == self.bound.shape else self.bound[:rows, :width]
        threshold = None if self.exact else self.buffers[0][:cells].reshape(shape)
        return _ScanBlock(
            fill, near, far, edge[i0 : i0 + rows, None], edge[None, i0 + 2 : i0 + 2 + width],
            self.buffers[1][:cells].reshape(shape), threshold, bound, self.flags[:cells].reshape(shape),
        )

    def block(self, i0: int) -> _ScanBlock:
        """The `_ScanBlock` of the block whose first row is i0, its views made now."""
        return self._views(i0, *self._layout(i0))

    def reverse(self, m: TwoMove):
        """Follow `apply_2move(t, m)`: reverse tour positions m.i + 1 .. m.j."""
        self.dist.reverse(m.i + 1, m.j + 1)


def _block_gains(block: _ScanBlock):
    """The 2-move engine's one step: the gains of a block's cells into `block.gain`.

    gain[r, c] = (c_ab + c_xy) - c_ax - c_by for the move on tour
    positions (i0 + r, i0 + 2 + c), in the arithmetic of `inst.dist` (on
    the coordinate path in `dist`'s integer dtype, which `_scan_dtype`
    keeps exact).  Only the cells where `block.bound` is 0 are pairs.
    """
    fill, near, far, tails, heads, gain, _, _, _ = block
    if fill is not None:
        fill()
    np.add(tails, heads, gain)
    gain -= near
    gain -= far


def _first_2move(state: _TourState) -> Optional[TwoMove]:
    """First improving 2-move in lexicographic (i, j) scan order, if any.

    Walks the blocks in order, block 0 from `state.first` and each later
    one from `state.block`.  One `np.greater` against the block's bound
    marks its pairs of positive gain, and `argmax` finds the first.  That
    pair is the move on an exact instance, or where its gain exceeds the
    threshold DEFAULT_GAIN_EPS * (edge[i] + edge[j]), taken in Python
    floats: the IEEE sum and product of `_gain_threshold` on the removed
    length.  Else its mark is cleared and `argmax` runs again.
    """
    edge = state.dist.edge
    for i0 in state.starts:
        block = state.block(i0) if i0 else state.first
        _block_gains(block)
        gain, hit = block.gain, np.greater(block.gain, block.bound, block.spare)
        while hit.item(k := int(hit.argmax())):
            r, c = divmod(k, gain.shape[1])
            i, j = i0 + r, i0 + 2 + c
            if state.exact or gain.item(k) > DEFAULT_GAIN_EPS * (edge.item(i) + edge.item(j)):
                return TwoMove(i, j, gain.item(k))
            hit[r, c] = False  # a positive gain within its threshold
    return None


def _indexed_scan(inst: Instance) -> bool:
    """Whether the 2-optimality verdicts enumerate candidates from `Instance._grid` instead of every pair.

    They do on an instance with the `_coordinates` backend over int64
    coordinates whose dense scan would take more than one block of
    `_block_rows` rows.  `two_opt` always scans densely.
    """
    n, coordinates = inst.n, inst._coordinates
    if n < 4 or coordinates is None or coordinates.x.dtype != np.int64:
        return False
    return n - 2 > _block_rows(n, coordinates.dtype())


def find_improving_2move(inst: Instance, t: Tour) -> Optional[TwoMove]:
    """First improving 2-move in lexicographic (i, j) scan order, if any.

    Checks that the tour is a permutation of the vertices.  An
    `_indexed_scan` instance enumerates the candidates of `_GridTour.first`;
    any other scans every pair.
    """
    ring = t.validate(inst)
    if _indexed_scan(inst):
        return _GridTour(inst, ring).first()
    return _first_2move(_TourState(inst, ring))


def _best_2move(inst: Instance, t: Tour) -> tuple[Optional[TwoMove], int]:
    """The 2-move whose gain most exceeds its threshold, first in scan order among ties, and the pairs examined.

    Its `gain` is that margin, gain - threshold: positive iff the move improves.
    None when the tour has no pair of non-adjacent edges.  Checks that the
    tour is a permutation of the vertices.  An `_indexed_scan` instance
    examines the candidates of `_GridTour.best`; any other scans all
    n(n - 3)/2 pairs.
    """
    ring = t.validate(inst)
    if _indexed_scan(inst):
        return _GridTour(inst, ring).best()
    return _dense_best(inst, ring)


def _dense_best(inst: Instance, ring: np.ndarray) -> tuple[Optional[TwoMove], int]:
    """`_best_2move` by the dense engine on a checked ring, over all n(n - 3)/2 pairs."""
    state = _TourState(inst, ring)
    dtype = state.dist.edge.dtype
    floor = np.iinfo(dtype).min if dtype.kind == "i" else -np.inf
    best = None
    for i0 in state.starts:
        block = state.block(i0) if i0 else state.first
        _block_gains(block)
        margin = block.gain
        if not inst.exact:
            threshold = np.add(block.tails, block.heads, block.threshold)  # the removed length
            threshold *= DEFAULT_GAIN_EPS
            margin -= threshold
        invalid = np.greater(block.bound, 0, block.spare)
        np.copyto(margin, floor, where=invalid)  # every block holds a pair
        k = int(margin.argmax())
        if best is None or margin.item(k) > best.gain:
            r, c = divmod(k, block.gain.shape[1])
            best = TwoMove(i0 + r, i0 + 2 + c, margin.item(k))
    return best, max(0, inst.n * (inst.n - 3) // 2)


# Incidences of one chunk of grid queries: about 16 int64 work arrays of that
# length live at once, as many bytes as the dense scan's two work arrays.
_CHUNK = _BLOCK_CELLS // 8


def _grid_pays(inst: Instance, visits: int) -> bool:
    """Whether a verdict visits `visits` grid vertices rather than scan the n(n - 3)/2 pairs densely.

    It does unless the dense scan has fewer pairs, as on a tour whose edges
    are long, such as a random one.  A p = 2 instance above
    MATRIX_SCAN_MAX_N, where the dense scan's matrix is out of reach, always
    takes the grid.
    """
    n = inst.n
    return visits <= n * (n - 3) // 2 or not (inst.norm.is_one or n <= MATRIX_SCAN_MAX_N)


class _GridIndex:
    """An instance's vertices in square cells, one grid per power-of-two side, for fixed-radius queries.

    Level s files vertex v under the cell (x_v >> s, y_v >> s) and sorts
    the vertices by cell, column by column, so that the cells of one column
    between two rows are one run of the sorted vertices.  A level is built
    the first time a query needs it and kept.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        self.x, self.y, self._levels = x, y, {}

    def level(self, s: int) -> tuple:
        """Level s: (stride, the cell keys cx * stride + cy in sorted order, the vertices in that order)."""
        level = self._levels.get(s)
        if level is None:
            stride = (int(self.y.max(initial=0)) >> s) + 1
            keys = (self.x >> s) * stride + (self.y >> s)
            order = np.argsort(keys, kind="stable")
            level = self._levels[s] = stride, keys[order], order
        return level

    def runs(self, vertices: np.ndarray, reach: np.ndarray) -> tuple:
        """The runs of sorted vertices that hold every vertex within reach[q] of query vertex q on both axes.

        Query q reads the level whose cells are at least reach[q] / 2 wide:
        the cells that its square of half-side reach[q] meets, at most five
        columns of them, one run of the level's sorted vertices each.
        Returns (rank, size, start, order) for `_chunks`: the query indices
        level by level, then each of those queries' five run sizes and
        starts into `order`, the levels' vertex orders one after another,
        as int32.
        """
        level = np.maximum(np.frexp(reach - 1)[1] - 1, 0)  # the least s with 2^(s+1) >= reach
        xq, yq = self.x[vertices], self.y[vertices]
        orders, starts, sizes, offset = [], [], [], 0
        for s in np.flatnonzero(np.bincount(level)).tolist():
            stride, keys, order = self.level(s)
            sel = level == s
            x, y, r = xq[sel, None], yq[sel, None], reach[sel, None]
            column = (np.maximum(x - r, 0) >> s) + np.arange(5)
            bottom, top = np.maximum(y - r, 0) >> s, np.minimum((y + r) >> s, stride - 1)
            empty = column > (x + r) >> s
            column *= stride
            start = np.searchsorted(keys, column + bottom, "left").astype(np.int32)
            size = np.searchsorted(keys, column + top, "right").astype(np.int32)
            size -= start
            size[empty] = 0
            start += offset
            orders.append(order)
            starts.append(start)
            sizes.append(size)
            offset += len(order)
        return np.argsort(level, kind="stable"), np.concatenate(sizes), np.concatenate(starts), np.concatenate(orders)


def _chunks(runs: tuple, budget: int):
    """The vertices of `_GridIndex.runs`, a chunk of whole queries at a time.

    Yields (queries, count, found): query indices, count[r] vertices for
    query queries[r], and `found`, those vertices, query by query.  A chunk
    holds at most `budget` vertices unless one query alone has more.
    """
    rank, size, start, order = runs
    count = size.sum(axis=1)
    ends = count.cumsum()
    a = done = 0
    while a < len(rank):
        b = max(a + 1, int(np.searchsorted(ends, done + budget, "right")))
        end = int(ends[b - 1])
        runs = size[a:b].ravel()
        # Vertex e of the chunk, in run r, is entry start[r] + e - (run r's first e).
        step = start[a:b].ravel() - (runs.cumsum() - runs)
        yield rank[a:b], count[a:b], order[np.repeat(step, runs) + np.arange(end - done)]
        a, done = b, end


class _GridTour:
    """A tour as the indexed verdicts see it: its ring-ordered coordinate distances and positions.

    `dist` is the instance's `_coordinates` backend taken in the order of
    `ring`, the tour's ring from `Tour.validate`, which the dense fallbacks
    reuse: `edge[k]` is the length of edge k, from position k to k + 1, in
    the 2-move engine's arithmetic.  `position[v]` is vertex v's position.

    The verdicts rest on one bound.  A move on edges i < j gains
    gain(i, j) = (e_i - D(o_i, o_j)) + (e_j - D(o_{i+1}, o_{j+1})), so
    gain >= g forces D(o_i, o_j) <= e_i - g/2 or D(o_{i+1}, o_{j+1}) <=
    e_j - g/2: o_j lies in the ball of radius e_i - g/2 around edge i's
    tail, or o_{i+1} in the ball of radius e_j - g/2 around edge j's head.
    `_candidates` lists the pairs that those balls find; the gains of just
    these pairs are computed as the dense scan computes them.
    """

    def __init__(self, inst: Instance, ring: np.ndarray):
        n = inst.n
        self.inst, self.n, self.ring = inst, n, ring
        self.dist = inst._coordinates.take(self.ring)
        self.position = np.empty(n, dtype=np.intp)
        self.position[self.ring[:-1]] = np.arange(n)

    def _margins(self, keys: np.ndarray) -> tuple:
        """(i, j, gain, margin) of the pairs i * n + j, in the arithmetic of `_block_gains`.

        margin = gain - threshold, positive iff the move improves; on an
        exact instance the threshold is 0, and the margin the gain's value.
        """
        i, j = np.divmod(keys, self.n)
        removed = self.dist.edge[i] + self.dist.edge[j]
        threshold = _gain_threshold(self.inst, removed)
        gain = removed - self.dist.pair(i, j) - self.dist.pair(i + 1, j + 1)
        return i, j, gain, gain - threshold

    def _candidates(self, limit: np.ndarray, root: bool) -> Optional[list]:
        """Key arrays i * n + j of the pairs (i, j), j >= i + 2, that the balls of edge k find, radius bound limit[k].

        None when the dense scan is cheaper (`_grid_pays`).

        Vertex v is in a ball of centre c when d <= limit[k], where d is
        the backend's `power` of D(c, v) or, with `root`, D(c, v) itself.
        Edge k's tail ball pairs i = k with j = v's position; its head ball
        pairs j = k with i = v's position - 1, reading position 0 as n.
        The pair (0, n - 1), whose edges are adjacent, may be among them.
        The vertex at position c is the centre of edge c's tail ball and
        edge c - 1's head ball, so one query there, on the level whose cells
        are at least as wide as the larger radius, serves both.
        """
        n, grid, dist = self.n, self.inst._grid, self.dist
        tail = limit
        head = np.roll(limit, 1)  # head[c] = limit[c - 1], edge n - 1 at c = 0
        either = np.maximum(tail, head)
        reach = either if root else dist.root(either)  # the larger radius, whose floor a query reads
        centres = np.flatnonzero(reach >= 1)  # distinct integer points are at least 1 apart
        if not len(centres):
            return []
        x, y = grid.x, grid.y
        position = self.position
        position_head = np.where(position == 0, n, position)
        cx, cy = dist.x[centres], dist.y[centres]
        tail_c, head_c, either = tail[centres], head[centres], either[centres]
        before = np.where(centres == 0, n, centres) - 1  # the edge whose head ball is centred there
        out = []
        runs = grid.runs(self.ring[centres], reach[centres].astype(np.int64))  # >= 1: truncation floors
        if not _grid_pays(self.inst, int(runs[1].sum())):
            return None
        for queries, count, found in _chunks(runs, _CHUNK):
            q = np.repeat(queries, count)
            dx, dy = x[found], y[found]
            dx -= cx[q]
            dy -= cy[q]
            d = dist.root(dist.power(dx, dy)) if root else dist.power(dx, dy)
            inside = np.flatnonzero(d <= either[q])
            q, found, d = q[inside], found[inside], d[inside]
            i, j = centres[q], position[found]
            keep = d <= tail_c[q]
            keep &= j - i >= 2
            out.append((i * n + j)[keep])
            i, j = position_head[found], before[q]  # i is one past the pair's first edge
            keep = d <= head_c[q]
            keep &= i < j
            out.append(((i - 1) * n + j)[keep])
        return out

    def _pairs(self, parts: list) -> np.ndarray:
        """The distinct keys of `parts`, in increasing (i, j) order, less the adjacent pair (0, n - 1)."""
        keys = np.sort(np.concatenate([np.empty(0, dtype=np.int64), *parts]))
        keep = np.empty(len(keys), dtype=bool)
        keep[:1], keep[1:] = True, keys[1:] != keys[:-1]
        keep &= keys != self.n - 1
        return keys[keep]

    def first(self) -> Optional[TwoMove]:
        """`find_improving_2move`: the least improving pair among the strict balls of radius e.

        An improving move has gain > 0 (g -> 0+), so its pair lies in a ball
        D < e, tested exactly on the integer powers as power(D) <=
        power(e) - 1: D <= e - 1 under p = 1, D^2 <= e^2 - 1 under p = 2.
        The edges' powers come from the ring coordinates.
        """
        x, y = self.dist.x, self.dist.y
        parts = self._candidates(self.dist.power(x[:-1] - x[1:], y[:-1] - y[1:]) - 1, root=False)
        if parts is None:
            return _first_2move(_TourState(self.inst, self.ring))
        keys = self._pairs(parts)
        i, j, gain, margin = self._margins(keys)
        hit = np.flatnonzero(margin > 0)
        if not len(hit):
            return None
        h = int(hit[0])
        return TwoMove(int(i[h]), int(j[h]), gain.item(h))

    def best(self) -> tuple[Optional[TwoMove], int]:
        """`_best_2move`: the largest margin over the balls of radius e - L/2, and the pairs examined.

        L is the largest margin of the seed pairs (k - 1, k + 1), one for
        every edge k, so the best margin is at least L, and every pair of
        margin >= L is a candidate: D <= e - L/2 in float64.  Under p = 1
        the test is exact, since D is an integer below 2^32 and e - L/2 a
        half-integer that float64 holds exactly; under p = 2 D is
        `np.sqrt` of the exact int64 D^2.  The seeds join the candidates,
        so the result is never empty.
        """
        n = self.n
        seeds = np.concatenate([np.arange(n - 2) * (n + 1) + 2, [n - 2, n + n - 1]])
        margin = self._margins(seeds)[3]
        parts = self._candidates(self.dist.edge - margin.max().item() / 2, root=True)
        if parts is None:
            return _dense_best(self.inst, self.ring)
        keys = self._pairs([seeds, *parts])
        i, j, _, margin = self._margins(keys)
        h = int(margin.argmax())
        return TwoMove(int(i[h]), int(j[h]), margin.item(h)), len(keys)


def apply_2move(t: Tour, m: TwoMove) -> Tour:
    o = t.order
    n = len(o)
    if not (0 <= m.i < m.j < n) or m.j == m.i + 1 or (m.i == 0 and m.j == n - 1):
        raise ValueError(f"invalid 2-move positions ({m.i}, {m.j}) for tour of size {n}")
    return Tour(o[: m.i + 1] + o[m.j : m.i : -1] + o[m.j + 1 :])


def two_opt(inst: Instance, start: Tour) -> Tour:
    """Run the 2-Opt heuristic to a local optimum (first-improvement pivot).

    Each scan, `_first_2move`, restarts at (0, 0) on one `_TourState`,
    built once from the ring and reversed in place after every move that
    `apply_2move` makes; the views of its block 0, made with it (on a
    matrix state, whole rows of its ring matrix), serve every scan.
    """
    t, state = start, _TourState(inst, start.validate(inst))
    while True:
        m = _first_2move(state)
        if m is None:
            return t
        t = apply_2move(t, m)
        state.reverse(m)


class KOptVerdict(NamedTuple):
    optimal: bool
    witness: Optional[tuple]  # positions of the replaced edges, plus the new tour


def _find_improving_3move(inst: Instance, ring: np.ndarray):
    """The first improving 3-move of the tour with this ring: ((i, j, k), new tour), or None.

    For i < j < k it removes the edges after positions i, j and k and joins
    s1 = o[i+1..j] and s2 = o[j+1..k] between a = o[i] and g = o[k+1] in
    seven ways: s1 or s2 first, then the first and the second reversed or
    not, the identity skipped.  A gain reads the six segment ends in the
    instance's distance cache, as Python values of `dist`; only a hit's
    witness slices the tour.
    """
    o, n = ring.tolist(), inst.n
    d = inst._pair_dist.outer(slice(None), slice(None)).tolist()
    for i, j, k in itertools.combinations(range(n), 3):
        a, b1, e1, b2, e2, g = o[i], o[i + 1], o[j], o[j + 1], o[k], o[k + 1]
        removed = d[a][b1] + d[e1][b2] + d[e2][g]
        eps = _gain_threshold(inst, removed)
        for x0, x1, y0, y1 in ((b1, e1, e2, b2), (e1, b1, b2, e2), (e1, b1, e2, b2),
                               (b2, e2, b1, e1), (b2, e2, e1, b1), (e2, b2, b1, e1), (e2, b2, e1, b1)):
            if removed - (d[a][x0] + d[x1][y0] + d[y1][g]) > eps:
                s1, s2 = o[i + 1 : j + 1], o[j + 1 : k + 1]
                x, y = (s1, s2) if x0 in (b1, e1) else (s2, s1)
                x, y = x if x[0] == x0 else x[::-1], y if y[0] == y0 else y[::-1]
                return (i, j, k), Tour(tuple(o[k + 1 : n] + o[: i + 1] + x + y))
    return None


def is_k_optimal(inst: Instance, t: Tour, k: int) -> KOptVerdict:
    """Exhaustively check k-optimality for k in {2, 3}."""
    if k == 2:
        m = find_improving_2move(inst, t)  # checks the tour
        if m is None:
            return KOptVerdict(True, None)
        return KOptVerdict(False, ((m.i, m.j), apply_2move(t, m)))
    ring = t.validate(inst)
    if k == 3:
        if inst.n > 400:
            raise ValueError("3-optimality scan limited to n <= 400")
        hit = _find_improving_3move(inst, ring)
        if hit is None:
            return KOptVerdict(True, None)
        return KOptVerdict(False, hit)
    raise ValueError(f"unsupported k={k}; only k in {{2, 3}}")


class _HeldKarpBlock(NamedTuple):
    """The read-only index arrays of one Held-Karp block: the states of some masks of one size k.

    For a mask and a column c in it, the state (mask, c) takes the minimum
    over the k - 1 other columns u of the mask of cost[mask ^ bit(c), u] +
    d(u, c).  The block lists its states mask by mask, each mask's columns
    in descending order, and they fill the table entries `start` onwards,
    one contiguous run.  Per candidate, (k - 1) x states with each state's
    u down a column in descending order, it holds:
    - `src`: the table entry of the state (mask ^ bit(c), u), which lies
      before `start`;
    - `cell`: c * m + u, the index of d(u, c) in the transposed distances.
    """

    start: int
    src: np.ndarray
    cell: np.ndarray


@cache
def _held_karp_plan(m: int, block_cells: int) -> tuple:
    """The m-column DP's `_HeldKarpBlock`s, layer by layer.

    The cost table keeps only the m 2^(m-1) states (mask, c) with c in mask,
    in the order the blocks enumerate them: layer k's masks in the order of
    `itertools.combinations` over the columns m - 1 down to 0, each mask's
    columns descending.  Layer 1 fills entries 0..m-1 (column m - 1 - i at
    entry i) and the full mask the last m.  A block holds at most
    `block_cells` candidates, or the states of one mask.

    No map from states to entries is built: a mask of columns u_0 > ... >
    u_{k-1} has rank C(m, k) - 1 - sum_j C(u_j, k - j) (from 0) in its
    layer, so `src` holds first(k) + k * rank + j for the state (mask, u_j),
    where first(k) is the entry of the layer's first state.

    The plan depends only on m and the block budget, so one plan per pair
    serves every instance of n = m + 1 vertices.  `src` is int16 while the
    table's entries fit, else int32; `cell` is int16.  At m = 17 (n = 18)
    the plan takes 6 bytes per candidate, 53 MB.
    """
    index = np.int16 if m << (m - 1) <= 1 << 15 else np.int32
    comb = np.array([[math.comb(x, r) for r in range(m + 1)] for x in range(m)], dtype=index)
    blocks, first, below = [], 0, 0  # the entries of the first states of layers k and k - 1
    for k in range(1, m + 1):
        # The masks of size k, each as its columns in descending order.
        combos = itertools.combinations(range(m - 1, -1, -1), k)
        v = np.fromiter(itertools.chain.from_iterable(combos), dtype=np.int8).reshape(-1, k)
        if k > 1:
            j = np.arange(k - 1)
            others = j + (j >= np.arange(k)[:, None])  # row a: 0..k-1 without a, in order
            u = v[:, others.T].transpose(1, 0, 2).reshape(k - 1, -1)  # u[j, (mask, a)]
            # Without column a, the rank terms are C(v_i, k - 1 - i) for i < a
            # and, one place down, C(v_i, k - i) for i > a.
            i = np.arange(k)
            kept, moved = comb[v, k - 1 - i], comb[v, k - i]
            terms = (kept - moved).cumsum(axis=1, dtype=index) - kept
            terms += moved.sum(axis=1, keepdims=True, dtype=index)
            rank = math.comb(m, k - 1) - 1 - terms  # of mask ^ bit(v_a) in layer k - 1
            src = (below + (k - 1) * rank).reshape(1, -1) + j[:, None].astype(index)
            cell = v.astype(np.int16).ravel() * m + u
            src.flags.writeable = cell.flags.writeable = False
            step = k * max(1, block_cells // (k * (k - 1)))  # states per block, whole masks
            for s0 in range(0, v.size, step):
                s = slice(s0, s0 + step)
                blocks.append(_HeldKarpBlock(first + s0, src[:, s], cell[:, s]))
        below, first = first, first + v.size
    return tuple(blocks)


def exact_opt(inst: Instance) -> tuple[Tour, object]:
    """Provably optimal tour via Held-Karp (n <= 18), over dense arrays filled one layer of subsets per size.

    Vertex 0 anchors the tour; column c stands for vertex c + 1, and bit c
    of a mask for that vertex.  The state (mask, c) costs the cheapest path
    from 0 through the vertices of mask that ends at column c, as a left
    fold of `dist` in path order.  For each mask of size k and each c in it,
    the minimum over u of cost(mask ^ bit(c), u) + d(u, c) goes to the
    largest u among ties, as does the closing edge into 0.  The table holds
    the live states only, m 2^(m-1) entries in the order of the plan that
    `_held_karp_plan` caches per size, so each block of at most
    `_BLOCK_CELLS` (mask, c, u) candidates is two gathers, an add and a
    minimum written straight into the block's run of the table.  No
    predecessor table is kept: the tour is walked back from its last
    state, whose block is found by stepping back through the blocks'
    `start`s.  The state's column of `src` and `cell` lists its candidates
    by descending u, and the predecessor is the first whose cost[src] +
    dt[cell], in the same arithmetic, equals the state's cost.
    """
    _check_exact_n(inst.n)
    n = inst.n
    m = n - 1
    d = inst._pair_dist.outer(slice(None), slice(None))  # the values of `dist`, cached
    dt = d[1:, 1:].T.ravel()  # dt[c * m + u] = d(u, c)
    blocks = _held_karp_plan(m, _BLOCK_CELLS)
    cost = np.empty(m << (m - 1), dtype=d.dtype)
    cost[:m] = d[0, :0:-1]  # layer 1: column m - 1 - i at entry i
    for blk in blocks:
        cand = cost.take(blk.src)
        cand += dt.take(blk.cell)
        cand.min(axis=0, out=cost[blk.start : blk.start + blk.src.shape[1]])
    total = cost[-m:] + d[:0:-1, 0]  # the full mask, columns m - 1 down to 0
    pick = int(total.argmin())
    best, c, entry = total.item(pick), m - 1 - pick, len(cost) - m + pick
    chain, b = [c + 1], len(blocks) - 1
    while entry >= m:  # entries 0..m-1 are layer 1, where the path starts
        while blocks[b].start > entry:
            b -= 1
        start, src, cell = blocks[b]
        a, target, j = entry - start, cost.item(entry), 0
        while cost.item(src.item(j, a)) + dt.item(cell.item(j, a)) != target:
            j += 1
        entry, c = src.item(j, a), cell.item(j, a) - c * m
        chain.append(c + 1)
    return Tour((0,) + tuple(reversed(chain))), best


def _check_exact_n(n: int):
    """Raise the ValueError of `exact_opt` unless 3 <= n <= EXACT_MAX_N."""
    if n < 3:
        raise ValueError("need n >= 3")
    if n > EXACT_MAX_N:
        raise ValueError(f"exact_opt limited to n <= {EXACT_MAX_N}, got {n}")


class SimpleVerdict(NamedTuple):
    simple: bool
    witness: Optional[tuple]  # pair of crossing tour edges


def _candidate_pairs(inst: Instance, *rings: np.ndarray):
    """The orientation-sign filter: edge pairs that need `segment_relation`, a block at a time.

    The edges are those of the rings (from `Tour.validate`) laid end to
    end: ring 0's edges are 0..n0 - 1, ring 1's follow, and so on, where
    edge i of a ring joins its positions i and i + 1.  Yields, in
    lexicographic order, every pair (i, j) with i < j that the four
    orientation signs of `segment_relation` leave open.  The signs settle
    two kinds of pair, for which `segment_relation` would return Disjoint or
    SharedEndpoint:
    - both endpoints of one segment lie strictly on one side of the other's
      line, so the segments are disjoint;
    - the segments share one vertex and their other endpoints are not
      collinear with it, so they meet only there.
    The signs are exact; `Instance._xy` gives the arithmetic.
    """
    xs, ys = inst._xy
    tail = np.concatenate([ring[:-1] for ring in rings])
    head = np.concatenate([ring[1:] for ring in rings])
    x, y = xs[tail], ys[tail]
    edges = tail, head, x, y, xs[head] - x, ys[head] - y
    m = len(tail)
    step = max(1, _BLOCK_CELLS // max(m, 1))
    for i0 in range(0, m - 1, step):
        j0 = i0 + 1
        ea, eb, ex, ey, edx, edy = (v[i0 : i0 + step, None] for v in edges)
        fa, fb, fx, fy, fdx, fdy = (v[None, j0:] for v in edges)
        gx, gy = ex - fx, ey - fy  # f's tail -> e's tail
        cross = fdx * edy - fdy * edx
        # Side of e's tail, then head, against f's line; side of f's tail, then
        # head, against e's line, both negated.  Each sum is itself an
        # orientation, so no value leaves the int64 range.
        e_side = fdx * gy - fdy * gx
        f_side = edx * gy - edy * gx
        s1, s2 = np.sign(e_side), np.sign(e_side + cross)
        s3, s4 = np.sign(f_side), np.sign(f_side + cross)
        settled = (s1 * s2 > 0) | (s3 * s4 > 0)
        # A shared vertex lies on the other's line: a zero sign beside a nonzero one.
        shared = (ea == fa) | (ea == fb) | (eb == fa) | (eb == fb)
        settled |= shared & (s1 != s2)
        # Row r, column c is the pair (i0 + r, j0 + c): keep j > i, that is c >= r.
        r, c = np.nonzero(~settled)
        upper = c >= r
        yield from zip((r[upper] + i0).tolist(), (c[upper] + j0).tolist())


def _first_intersecting(inst: Instance, edges: list, pairs) -> Optional[tuple]:
    """The first pair of edges[i], edges[j] over (i, j) in `pairs` that meet
    other than at a shared endpoint, or None: the simplicity verdict's witness."""
    for i, j in pairs:
        rel = segment_relation(inst.segment(*edges[i]), inst.segment(*edges[j]))
        if not isinstance(rel, (Disjoint, SharedEndpoint)):
            return edges[i], edges[j]
    return None


def _check_planar(inst: Instance):
    """Raise the ValueError of `is_simple` unless the instance is 2-D."""
    if inst.dim != 2:
        raise ValueError("is_simple supports 2-D instances only")


def is_simple(inst: Instance, t: Tour) -> SimpleVerdict:
    """No two tour edges intersect in a point interior to either segment.

    One `_candidate_pairs` pass over the tour's ring; the witness is the
    first offending pair of edges in (i, j) order (`_first_intersecting`).
    """
    _check_planar(inst)
    ring = t.validate(inst)
    witness = _first_intersecting(inst, t.edges(), _candidate_pairs(inst, ring))
    return SimpleVerdict(witness is None, witness)
