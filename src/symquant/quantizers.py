"""Logarithmic and zoom quantizers, lattices, and box partitions.

A logarithmic quantizer with density parameter eta in (0,1) has levels that
form a geometric sequence with ratio (1+eta)/(1-eta); the quantization region
of a positive level q is the interval [q/(1+eta), q/(1-eta)], mirrored for
negative levels, with a deadzone around zero mapping to 0.  Two level
placements are supported:

  EQ2   levels d, d*r, d*r^2, ...          deadzone radius d/(1+eta)
  EQ20  levels a(1+eta), a(1+eta)*r, ...   deadzone radius a

with r = (1+eta)/(1-eta) and d == a the base parameter.  Both variants obey
the sector bound |z - Q(z)| <= eta*|z| above the deadzone.

The zoom quantizer is a saturated uniform quantizer scaled by delta: it maps
z to k*Lambda*delta with k = round(z/(Lambda*delta)) clamped to [-M, M], so
its range is M*Lambda*delta and its error bound Lambda*delta inside the
range.

Lattices turn a quantizer into a cover of a box by axis-aligned cells.
Region slivers owned by levels outside the box are merged into the adjacent
outermost retained cell so that the cells cover the box exactly; a cell's
quantized point may then sit on (or outside) the clipped cell boundary.
The lattice and the bins of each zoom-refined cell are grids of one type
(_Grid), so point location and the closed-box queries follow one rule for
both.  Point location resolves shared boundaries deterministically by a
per-grid tie table: logarithmic boundaries go to the smaller-magnitude
level, zoom bins are half-open [(k-0.5)w, (k+0.5)w).
"""

from __future__ import annotations

import copy
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

VARIANTS = ("EQ2", "EQ20")


@dataclass(frozen=True)
class LogQuantizerParams:
    """Parameters of the logarithmic quantizer.

    eta: density parameter in (0,1); d: base level (the deadzone edge for
    variant EQ20, where it is traditionally called a).
    """

    eta: float
    d: float
    variant: str = "EQ20"

    def __post_init__(self):
        if not 0.0 < self.eta < 1.0:
            raise ValueError(f"eta must be in (0,1), got {self.eta}")
        if self.d <= 0.0:
            raise ValueError(f"d must be positive, got {self.d}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")

    @property
    def deadzone(self) -> float:
        """Radius of the region quantized to 0."""
        if self.variant == "EQ2":
            return self.d / (1.0 + self.eta)
        return self.d

    @property
    def first_level(self) -> float:
        if self.variant == "EQ2":
            return self.d
        return self.d * (1.0 + self.eta)


@dataclass(frozen=True)
class ZoomQuantizerParams:
    """Zoom quantizer parameters: range index M, error bound Lambda, zoom delta.

    delta = 0 disables refinement (the identity lattice).  The realized map
    has range M*Lambda*delta, error bound Lambda*delta and a zero bin of
    total width Lambda*delta.
    """

    M: int
    Lambda: float
    delta: float

    def __post_init__(self):
        if self.M < 1:
            raise ValueError(f"M must be >= 1, got {self.M}")
        if self.Lambda <= 0.0:
            raise ValueError(f"Lambda must be positive, got {self.Lambda}")
        if self.delta < 0.0:
            raise ValueError(f"delta must be nonnegative, got {self.delta}")

    @property
    def width(self) -> float:
        """Bin width Lambda*delta of the realized quantizer."""
        return self.Lambda * self.delta


# ---------------------------------------------------------------------------
# logarithmic quantizer


def _boundaries_up_to(p: LogQuantizerParams, zmax: float) -> Tuple[List[float], List[float]]:
    """Positive levels and their shared region boundaries covering [0, zmax].

    Returns (levels, uppers) where region i is (uppers[i-1], uppers[i]] with
    uppers[-1] meaning the deadzone edge.  Adjacent regions share the exact
    same float boundary so covers tile without gaps.
    """
    ratio = (1.0 + p.eta) / (1.0 - p.eta)
    levels: List[float] = []
    uppers: List[float] = []
    level = p.first_level
    edge = p.deadzone
    while edge < zmax:
        levels.append(level)
        edge = level / (1.0 - p.eta)
        uppers.append(edge)
        level = level * ratio
        if len(levels) > 4096:
            raise ValueError("logarithmic level enumeration ran away; check eta/d")
    return levels, uppers


def log_quantize(z: float, p: LogQuantizerParams) -> float:
    """Quantize a scalar; odd symmetry, ties resolve to the smaller level."""
    az = abs(z)
    if az <= p.deadzone:
        return 0.0
    levels, uppers = _boundaries_up_to(p, az)
    # az lies in the last generated region (uppers[-2], uppers[-1]]
    q = levels[-1]
    return q if z > 0 else -q


@dataclass(frozen=True)
class AxisRegion:
    lower: float
    upper: float
    level: float


def _axis_regions(lo: float, hi: float, p: LogQuantizerParams) -> List[AxisRegion]:
    """1-D quantization regions covering [lo, hi] exactly, boundary-merged."""
    if not lo < hi:
        raise ValueError(f"degenerate interval [{lo}, {hi}]")
    zmax = max(abs(lo), abs(hi))
    levels, uppers = _boundaries_up_to(p, zmax)
    dz = p.deadzone

    full: List[AxisRegion] = []
    for lvl, up, low in zip(levels[::-1], uppers[::-1],
                            ([dz] + uppers[:-1])[::-1]):
        full.append(AxisRegion(-up, -low, -lvl))
    full.append(AxisRegion(-dz, dz, 0.0))
    low = dz
    for lvl, up in zip(levels, uppers):
        full.append(AxisRegion(low, up, lvl))
        low = up

    clipped = [
        AxisRegion(max(r.lower, lo), min(r.upper, hi), r.level)
        for r in full
        if r.lower < hi and r.upper > lo
    ]
    inside = [i for i, r in enumerate(clipped) if lo <= r.level <= hi]
    if inside:
        i0, i1 = inside[0], inside[-1]
        merged = list(clipped[i0:i1 + 1])
        merged[0] = AxisRegion(lo, merged[0].upper, merged[0].level)
        merged[-1] = AxisRegion(merged[-1].lower, hi, merged[-1].level)
        return merged
    return clipped  # box touches no lattice point; keep the raw slivers


def _fill_grid(table: np.ndarray, first_id: int, axes: List[List[AxisRegion]],
               half=None) -> None:
    """Write the cells of the product of the per-axis regions into the rows
    first_id.. of the cell table (see Partition.cell_arrays), row-major
    (last axis fastest): each axis's (lower, upper, level) broadcast over
    the index grid.  A cell's knot half-width is half its extent on each
    axis, or half where given."""
    shape = tuple(len(ax) for ax in axes)
    rows = table[:, first_id:first_id + math.prod(shape)]
    for i, ax in enumerate(axes):
        at = [1] * len(axes)
        at[i] = len(ax)
        for t, vals in enumerate(zip(*((r.lower, r.upper, r.level) for r in ax))):
            rows[t, :, i] = np.broadcast_to(np.reshape(vals, at), shape).ravel()
    rows[3] = (rows[1] - rows[0]) / 2.0 if half is None else half


def _strides(shape: Tuple[int, ...]) -> List[int]:
    out = [1] * len(shape)
    for i in range(len(shape) - 2, -1, -1):
        out[i] = out[i + 1] * shape[i + 1]
    return out


def _as_axis_params(p, n: int) -> List[LogQuantizerParams]:
    if isinstance(p, LogQuantizerParams):
        return [p] * n
    p = list(p)
    if len(p) != n:
        raise ValueError(f"need {n} per-axis parameter sets, got {len(p)}")
    return p


def zoom_quantize(z: float, p: ZoomQuantizerParams) -> float:
    """Saturated uniform quantization k*Lambda*delta, half-open bins."""
    if p.delta <= 0.0:
        raise ValueError("zoom_quantize needs delta > 0 (delta = 0 disables refinement)")
    w = p.width
    return max(-p.M, min(p.M, _zoom_bin(z, w))) * w


def _zoom_bin(z: float, w: float) -> int:
    """Unclamped bin index k under (k-0.5)w <= z < (k+0.5)w, float-exact."""
    k = math.floor(z / w + 0.5)
    while z < (k - 0.5) * w:
        k -= 1
    while z >= (k + 0.5) * w:
        k += 1
    return k


def _zoom_axes(lower: List[float], upper: List[float],
               p: ZoomQuantizerParams) -> List[List[AxisRegion]]:
    """Per axis of the cell with the given bounds, the zoom bins
    [(k-0.5)w, (k+0.5)w] of the retained bin indices k, clipped to the
    cell: the k with k*w inside the cell and |k| <= M, or, where no such
    point falls inside, the one saturated k of the cell's midpoint.
    Leftover remainders at the cell edges join the outermost bin."""
    w = p.width
    tol = 1e-9 * w
    axes = []
    for lo, hi in zip(lower, upper):
        ks = [k for k in range(math.ceil((lo - tol) / w), math.floor((hi + tol) / w) + 1)
              if -p.M <= k <= p.M and lo - tol <= k * w <= hi + tol]
        ks = ks or [max(-p.M, min(p.M, _zoom_bin(0.5 * (lo + hi), w)))]
        axes.append([AxisRegion(lo if j == 0 else (k - 0.5) * w,
                                hi if j == len(ks) - 1 else (k + 0.5) * w, k * w)
                     for j, k in enumerate(ks)])
    return axes


# ---------------------------------------------------------------------------
# grids: the lattice and the zoom records, and the partition built of them


class _Grid:
    """A product of per-axis intervals, its cells numbered row-major (last
    axis fastest) from first_id: the unrefined lattice, or the zoom record
    of one refined base cell.  Per axis i, the intervals [lowers[i][j],
    uppers[i][j]] tile the axis in order, and ties[i][j] marks an upper
    bound that a point on it shares with interval j+1 and that goes to
    j+1.  The lattice marks a logarithmic boundary whose next level is the
    smaller; a zoom record marks every interior bound, so its bins are the
    half-open bins of zoom_quantize, and a point beyond the first or last
    retained bin stays in it, as the quantizer saturates.  params is the
    quantizer that made the grid: the lattice's per-axis
    LogQuantizerParams, a record's ZoomQuantizerParams."""

    def __init__(self, params, axes: List[List[AxisRegion]], ties: List[List[bool]],
                 first_id: int = 0):
        self.params, self.first_id, self.ties = params, first_id, ties
        self.lowers = [[r.lower for r in ax] for ax in axes]
        self.uppers = [[r.upper for r in ax] for ax in axes]
        self.shape = tuple(len(ax) for ax in axes)
        self.strides = _strides(self.shape)
        self.count = math.prod(self.shape)

    def locate(self, x: List[float]) -> int:
        """Id of the cell that owns the point x (one float per axis): per
        axis, the first interval whose upper bound is not below x, or the
        next one on a marked tie."""
        cid = self.first_id
        for i, stride in enumerate(self.strides):
            lowers, uppers, z = self.lowers[i], self.uppers[i], x[i]
            if not lowers[0] <= z <= uppers[-1]:  # NaN too
                raise ValueError(f"{z} outside axis range [{lowers[0]}, {uppers[-1]}]")
            j = bisect_left(uppers, z)
            cid += (j + 1 if z == uppers[j] and self.ties[i][j] else j) * stride
        return cid

    def locate_batch(self, X: np.ndarray) -> np.ndarray:
        """locate() of every row of the (K, n) points X, as (K,) int64 ids;
        the first row that locate() rejects raises its ValueError."""
        ids = np.full(len(X), self.first_id, dtype=np.int64)
        fails = np.zeros(len(X), dtype=bool)
        for i, stride in enumerate(self.strides):
            z, uppers = X[:, i], np.array(self.uppers[i])
            fails |= ~((self.lowers[i][0] <= z) & (z <= uppers[-1]))
            j = np.minimum(np.searchsorted(uppers, z), len(uppers) - 1)
            ids += (j + ((z == uppers[j]) & np.array(self.ties[i])[j])) * stride
        if fails.any():
            self.locate(X[int(np.argmax(fails))].tolist())  # raises for that row
        return ids

    def meets(self, lo: List[float], hi: List[float]) -> List[int]:
        """Ids, ascending, of the cells whose closed region meets the closed
        box lo, hi (one float per axis): per axis, the intervals from
        bisect_left(uppers, lo) to bisect_right(lowers, hi).  Touching
        faces meet, and a NaN bound meets nothing."""
        ids = [self.first_id]
        for i, stride in enumerate(self.strides):
            a, b = lo[i], hi[i]
            if a != a or b != b:
                return []
            ids = [cid + j * stride for cid in ids
                   for j in range(bisect_left(self.uppers[i], a), bisect_right(self.lowers[i], b))]
        return ids

    def spans(self, lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """meets() of each of the (K, n) closed boxes lo, hi as an index
        box: per axis, the intervals start .. start + width - 1, (K, n)
        int64 each, by the same rule (width 0 where it meets none)."""
        start, width = np.empty(lo.shape, dtype=np.int64), np.empty(lo.shape, dtype=np.int64)
        for i in range(lo.shape[1]):
            start[:, i] = np.searchsorted(self.uppers[i], lo[:, i])
            width[:, i] = np.searchsorted(self.lowers[i], hi[:, i], "right")
        width -= start
        width[np.isnan(lo) | np.isnan(hi) | (width < 0)] = 0
        return start, width

    def box_ids(self, start: np.ndarray, width: np.ndarray) -> np.ndarray:
        """The ids of each row's index box (spans), row after row, each
        row's ascending: each row's first id is expanded one axis at a
        time, every partial id into its row's width on that axis."""
        ids = self.first_id + (start * self.strides).sum(axis=1)
        row = np.arange(len(start))
        for i, stride in enumerate(self.strides):
            w = width[row, i]
            offset = np.repeat(np.cumsum(w) - w, w)
            ids = np.repeat(ids, w) + (np.arange(len(offset)) - offset) * stride
            row = np.repeat(row, w)
        return ids


class Partition:
    """A cover of a box by logarithmic cells, some zoom-refined.

    Owns deterministic point location (the refinement map F restricted to
    state vectors) and box-intersection queries used by the abstraction
    builder.  A cell is an id: the partition keeps the unrefined lattice
    as a _Grid (grid), ids (the active cell ids, ascending int64), the
    cell table that cell_arrays reads, and one _Grid per refined base cell
    (zoom, id -> record), which refined() fills.  Every query asks the
    lattice, then the record of each refined cell it reaches (a batched
    query, each record once), by the same rule.  Cells keep stable ids
    across refinement: a refined base cell retires its id (its table rows
    turn NaN) and subcells take fresh ids appended in order.  Grids never
    change after construction; a refined partition shares them.
    """

    def __init__(self, box_lo, box_hi, params):
        self.box_lo = np.asarray(box_lo, dtype=float)
        self.box_hi = np.asarray(box_hi, dtype=float)
        self.n = len(self.box_lo)
        self.params = _as_axis_params(params, self.n)
        axes = [_axis_regions(lo, hi, p) for lo, hi, p
                in zip(self.box_lo.tolist(), self.box_hi.tolist(), self.params)]
        # a boundary goes to the region of the smaller level
        self.grid = _Grid(self.params, axes, [[abs(b.level) < abs(a.level) for a, b
                                               in zip(ax, ax[1:])] + [False] for ax in axes])
        self._table = np.empty((4, self.grid.count, self.n))
        _fill_grid(self._table, 0, axes)
        self.ids = np.arange(self.grid.count, dtype=np.int64)
        self.zoom: Dict[int, _Grid] = {}

    # -- construction ------------------------------------------------------

    def refined(self, assignments: Dict[int, ZoomQuantizerParams]) -> "Partition":
        """New partition with the given base cells zoom-refined; it shares
        this partition's grids."""
        part = copy.copy(self)
        part.zoom = dict(self.zoom)
        rows = next_id = len(self._table[0])
        new: Dict[int, List[List[AxisRegion]]] = {}
        for bid in sorted(assignments):
            p = assignments[bid]
            if bid in part.zoom:
                raise ValueError(f"cell {bid} is already zoom-refined")
            if not 0 <= bid < self.grid.count:
                if self.grid.count <= bid < rows:  # rows of self past the base cells
                    raise ValueError(f"cell {bid} is a zoom subcell; refine base cells only")
                raise ValueError(f"unknown cell id {bid}")
            if p.delta == 0.0:
                continue  # keep the cell
            axes = new[bid] = _zoom_axes(*self._table[:2, bid].tolist(), p)
            part.zoom[bid] = _Grid(p, axes, [[True] * (len(ax) - 1) + [False] for ax in axes],
                                   next_id)
            next_id += part.zoom[bid].count
        # the table grows by the new subcells' rows; retired rows turn NaN
        part._table = np.full((4, next_id, self.n), np.nan)
        part._table[:, :rows] = self._table
        part._table[:, list(new)] = np.nan
        for bid, axes in new.items():
            _fill_grid(part._table, part.zoom[bid].first_id, axes, assignments[bid].width)
        part.ids = np.flatnonzero(~np.isnan(part._table[0, :, 0]))
        return part

    # -- queries -----------------------------------------------------------

    def locate(self, x) -> int:
        """Cell id containing x (deterministic tie-break); x must be in the box."""
        x = np.asarray(x, dtype=float).tolist()
        cid = self.grid.locate(x)
        z = self.zoom.get(cid)
        return cid if z is None else z.locate(x)

    def locate_batch(self, X) -> np.ndarray:
        """locate() of every row of the (K, n) points X, as (K,) int64 ids.
        The first row that locate() rejects (outside the box, or NaN)
        raises its ValueError.  Only the records that some row reaches are
        asked, each once, for all of its rows."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise ValueError(f"need points of shape (K, {self.n}), got {X.shape}")
        ids = self.grid.locate_batch(X)
        for z, at in self._records(ids) if self.zoom else []:
            ids[at] = z.locate_batch(X[at])
        return ids

    def cell_arrays(self, ids) -> Tuple[np.ndarray, ...]:
        """(lower, upper, quantized point, knot half-width) of the cells with
        the given ids, each of shape ids.shape + (n,), NaN on a retired id.
        A knot half-width is the quantization width a tube knot in the cell
        carries on each axis: half the cell's extent on that axis, or the
        bin width Lambda*delta on a zoom subcell."""
        return tuple(self._table[:, np.asarray(ids, dtype=np.int64)])

    def intersecting(self, box_lo, box_hi) -> List[int]:
        """Ids of all cells whose closed region meets the closed box."""
        lo = np.asarray(box_lo, dtype=float).tolist()
        hi = np.asarray(box_hi, dtype=float).tolist()
        out: List[int] = []
        for cid in self.grid.meets(lo, hi):
            z = self.zoom.get(cid)
            if z is None:
                out.append(cid)
            else:
                out.extend(z.meets(lo, hi))
        return sorted(out)

    def box_spans(self, box_lo, box_hi) -> Tuple[np.ndarray, np.ndarray]:
        """Per axis, the range of the unrefined lattice's regions that each
        of the (K, n) closed boxes meets (_Grid.spans); a box meets the
        cells of their product (box_cells)."""
        return self.grid.spans(np.asarray(box_lo, dtype=float), np.asarray(box_hi, dtype=float))

    def box_cells(self, start, width, box_lo, box_hi) -> Tuple[np.ndarray, np.ndarray]:
        """intersecting() of the K closed boxes box_lo, box_hi with the index
        boxes start, width (box_spans): the (K,) row sizes, and the ids row
        after row, each row's ascending.  A retired lattice id (_Grid.box_ids)
        gives way to the bins of its record that the box meets, each record
        asked once, for the rows that reach it.  Subcell ids follow lattice
        ids and, by record in first_id order, each other, so a stable sort
        by row orders each row."""
        sizes, ids = width.prod(axis=1), self.grid.box_ids(start, width)
        found = self._records(ids) if self.zoom else []
        if not found:
            return sizes, ids
        rows = np.repeat(np.arange(len(start)), sizes)
        kept, sub_ids, sub_rows = np.ones(len(ids), dtype=bool), [], []
        for z, at in found:
            kept[at] = False
            k = rows[at]
            sub, w = z.spans(box_lo.take(k, axis=0), box_hi.take(k, axis=0))
            sub_ids.append(z.box_ids(sub, w))
            sub_rows.append(np.repeat(k, w.prod(axis=1)))
        rows, ids = np.concatenate([rows[kept]] + sub_rows), np.concatenate([ids[kept]] + sub_ids)
        return np.bincount(rows, minlength=len(start)), ids[np.argsort(rows, kind="stable")]

    def _records(self, ids: np.ndarray) -> List[Tuple[_Grid, np.ndarray]]:
        """The records of the retired ids (NaN table rows) among the lattice
        ids, in first_id order, each with the positions, ascending, of its
        base cell's id in ids."""
        at = np.flatnonzero(np.isnan(self._table[0, :, 0].take(ids)))
        if not len(at):
            return []
        at = at[np.argsort(ids[at], kind="stable")]
        bids, first = np.unique(ids[at], return_index=True)
        groups = zip([self.zoom[bid] for bid in bids.tolist()], np.split(at, first[1:]))
        return sorted(groups, key=lambda g: g[0].first_id)
