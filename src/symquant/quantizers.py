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
Point location resolves shared boundaries deterministically: logarithmic
boundaries go to the smaller-magnitude level, zoom bins are half-open
[(k-0.5)w, (k+0.5)w).
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


def _axis_locate(lowers: List[float], uppers: List[float], bump: np.ndarray,
                 z: float) -> int:
    """Index of the region owning z, given the regions' bounds along one
    axis and bump, which marks each upper bound that goes to the next
    region (the smaller level)."""
    if not lowers[0] <= z <= uppers[-1]:  # NaN too
        raise ValueError(f"{z} outside axis range [{lowers[0]}, {uppers[-1]}]")
    i = bisect_left(uppers, z)
    return i + 1 if z == uppers[i] and bump[i] else i


def _axis_span(lowers: List[float], uppers: List[float], lo: float,
               hi: float) -> range:
    """Indices of the intervals [lowers[j], uppers[j]] with closed overlap
    with [lo, hi]; both bound lists must be sorted."""
    if lo != lo or hi != hi:
        return range(0)  # NaN meets nothing
    return range(bisect_left(uppers, lo), bisect_right(lowers, hi))


def _row_major(ranges: List[range], strides: List[int]) -> List[int]:
    """Flat offsets of the index grid ranges[0] x ranges[1] x ..., last
    axis fastest."""
    ids = [0]
    for r, st in zip(ranges, strides):
        ids = [base + j * st for base in ids for j in r]
    return ids


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
    k = max(-p.M, min(p.M, int(_zoom_bin(z, w))))
    return k * w


def _zoom_bin(z, w):
    """Unclamped bin index k under (k-0.5)w <= z < (k+0.5)w, float-exact,
    as a float holding an integer: of one float z under one width w, or of
    every entry of an array z under the width of the same entry of w."""
    k = np.floor(z / w + 0.5)
    while (down := z < (k - 0.5) * w).any():
        k = k - down
    while (up := z >= (k + 0.5) * w).any():
        k = k + up
    return k


def _zoom_axis_ks(lo: float, hi: float, p: ZoomQuantizerParams) -> List[int]:
    """Retained bin indices: lattice points k*w inside [lo, hi], |k| <= M."""
    w = p.width
    tol = 1e-9 * w
    k_lo = int(np.ceil((lo - tol) / w))
    k_hi = int(np.floor((hi + tol) / w))
    ks = [k for k in range(k_lo, k_hi + 1)
          if -p.M <= k <= p.M and lo - tol <= k * w <= hi + tol]
    if not ks:
        # no lattice point falls inside: one saturated subcell covers it all
        k = max(-p.M, min(p.M, int(_zoom_bin(0.5 * (lo + hi), w))))
        ks = [k]
    return ks


def _zoom_axes(lower: List[float], upper: List[float],
               p: ZoomQuantizerParams) -> Tuple[List[List[int]], List[List[AxisRegion]]]:
    """Per axis of the cell with the given bounds, the retained bin indices
    k (_zoom_axis_ks) and the zoom bins [(k-0.5)w, (k+0.5)w] of those k,
    clipped to the cell; leftover remainders at the cell edges join the
    outermost bin."""
    w = p.width
    axis_ks, axes = [], []
    for lo, hi in zip(lower, upper):
        ks = _zoom_axis_ks(lo, hi, p)
        axis_ks.append(ks)
        axes.append([AxisRegion(lo if j == 0 else (k - 0.5) * w,
                                hi if j == len(ks) - 1 else (k + 0.5) * w, k * w)
                     for j, k in enumerate(ks)])
    return axis_ks, axes


# ---------------------------------------------------------------------------
# partition of the state box with optional per-cell zoom refinement


class _ZoomedCell:
    """The one record of a zoom-refined base cell, filled once by
    Partition.refined from the base cell's bounds: its parameters, the id
    of its first subcell and the count of its subcells, per axis the
    retained bin indices (consecutive) and their bins (_zoom_axes), whose
    product gives the subcells in row-major order, and the bin bounds and
    subcell strides that locate and the box queries read."""

    def __init__(self, params: ZoomQuantizerParams, first_id: int,
                 lower: List[float], upper: List[float]):
        self.params, self.first_id = params, first_id
        self.axis_ks, self.axes = _zoom_axes(lower, upper, params)
        self.lowers = [[r.lower for r in ax] for ax in self.axes]
        self.uppers = [[r.upper for r in ax] for ax in self.axes]
        shape = tuple(len(ks) for ks in self.axis_ks)
        self.strides = _strides(shape)
        self.count = math.prod(shape)


class Partition:
    """A cover of a box by logarithmic cells, some zoom-refined.

    Owns deterministic point location (the refinement map F restricted to
    state vectors) and box-intersection queries used by the abstraction
    builder.  A cell is an id: the partition keeps the per-axis bounds of
    the unrefined lattice, ids (the active cell ids, ascending int64), the
    cell table that cell_arrays reads, and one record per refined base cell
    (zoom, id -> _ZoomedCell), which refined() fills and point location and
    box queries read.  Cells keep stable ids across refinement: refined
    base cells retire their id (their table rows turn NaN) and subcells
    receive fresh ids appended in order.  The per-axis bounds are never
    changed after construction, so a refined partition shares them with
    the partition it refines.
    """

    def __init__(self, box_lo, box_hi, params):
        self.box_lo = np.asarray(box_lo, dtype=float)
        self.box_hi = np.asarray(box_hi, dtype=float)
        self.n = len(self.box_lo)
        self.params = _as_axis_params(params, self.n)
        axes = [_axis_regions(float(self.box_lo[i]), float(self.box_hi[i]), self.params[i])
                for i in range(self.n)]
        self._shape = tuple(len(ax) for ax in axes)
        self._strides = _strides(self._shape)
        # per-axis bound lists for bisection: regions tile the axis in order
        self._lowers = [[r.lower for r in ax] for ax in axes]
        self._uppers = [[r.upper for r in ax] for ax in axes]
        # the bounds as arrays for locate_batch and box_spans;
        # _bump[i][j] marks a boundary uppers[i][j] that goes to region j+1
        # (the smaller level)
        self._lower_arrays = [np.array(b) for b in self._lowers]
        self._upper_arrays = [np.array(b) for b in self._uppers]
        self._bump = [np.array([abs(b.level) < abs(a.level)
                                for a, b in zip(ax, ax[1:])] + [False])
                      for ax in axes]
        self._n_base = math.prod(self._shape)
        self._table = np.empty((4, self._n_base, self.n))
        _fill_grid(self._table, 0, axes)
        self.ids = np.arange(self._n_base, dtype=np.int64)
        self.zoom: Dict[int, _ZoomedCell] = {}

    # -- construction ------------------------------------------------------

    def refined(self, assignments: Dict[int, ZoomQuantizerParams]) -> "Partition":
        """New partition with the given base cells zoom-refined; it shares
        this partition's per-axis bounds."""
        part = copy.copy(self)
        part.zoom = dict(self.zoom)
        rows = next_id = len(self._table[0])
        new: List[int] = []
        for bid in sorted(assignments):
            p = assignments[bid]
            if bid in part.zoom:
                raise ValueError(f"cell {bid} is already zoom-refined")
            if not 0 <= bid < self._n_base:
                if self._n_base <= bid < rows:  # rows of self past the base cells
                    raise ValueError(f"cell {bid} is a zoom subcell; refine base cells only")
                raise ValueError(f"unknown cell id {bid}")
            if p.delta == 0.0:
                continue  # keep the cell
            lo, hi = self._table[:2, bid].tolist()
            z = part.zoom[bid] = _ZoomedCell(p, next_id, lo, hi)
            new.append(bid)
            next_id += z.count
        # the table grows by the new subcells' rows; retired rows turn NaN
        part._table = np.full((4, next_id, self.n), np.nan)
        part._table[:, :len(self._table[0])] = self._table
        part._table[:, new] = np.nan
        for bid in new:
            z = part.zoom[bid]
            _fill_grid(part._table, z.first_id, z.axes, z.params.width)
        part.ids = np.flatnonzero(~np.isnan(part._table[0, :, 0]))
        # per record, in base id order, the zoom tables of locate_batch:
        # first subcell id, bin width, retained bin range and strides per
        # axis; _zoom_at gives a base cell's record, -1 where unrefined
        recs = [part.zoom[b] for b in sorted(part.zoom)]
        part._zoom_at = np.full(self._n_base, -1, dtype=np.int32)
        part._zoom_at[sorted(part.zoom)] = np.arange(len(recs))
        part._zoom_first = np.array([z.first_id for z in recs], dtype=np.int64)
        part._zoom_width = np.array([z.params.width for z in recs])
        part._zoom_kmin, part._zoom_kmax, part._zoom_strides = np.array(
            [[[ks[0] for ks in z.axis_ks], [ks[-1] for ks in z.axis_ks], z.strides]
             for z in recs], dtype=np.int64).reshape(-1, 3, self.n).transpose(1, 0, 2)
        return part

    # -- queries -----------------------------------------------------------

    def locate(self, x) -> int:
        """Cell id containing x (deterministic tie-break); x must be in the box."""
        x = np.asarray(x, dtype=float).tolist()
        bid = 0
        for i in range(self.n):
            j = _axis_locate(self._lowers[i], self._uppers[i], self._bump[i], x[i])
            bid += j * self._strides[i]
        z = self.zoom.get(bid)
        if z is None:
            return bid
        sid = z.first_id
        for i, st in enumerate(z.strides):
            ks = z.axis_ks[i]
            k = int(_zoom_bin(x[i], z.params.width))
            sid += (max(ks[0], min(ks[-1], k)) - ks[0]) * st
        return sid

    def locate_batch(self, X) -> np.ndarray:
        """locate() of every row of the (K, n) points X, as (K,) int64 ids.

        A boundary point goes to the smaller level, as in locate(); zoom
        bins are the float-exact bins of _zoom_bin.  The first row that
        locate() rejects (outside the box, or NaN) raises its ValueError.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise ValueError(f"need points of shape (K, {self.n}), got {X.shape}")
        bid = np.zeros(len(X), dtype=np.int64)
        fails = np.zeros(len(X), dtype=bool)
        for i in range(self.n):
            z, uppers = X[:, i], self._upper_arrays[i]
            fails |= ~((self._lowers[i][0] <= z) & (z <= uppers[-1]))
            j = np.minimum(np.searchsorted(uppers, z), len(uppers) - 1)
            j += (z == uppers[j]) & self._bump[i][j]
            bid += j * self._strides[i]
        if fails.any():
            self.locate(X[int(np.argmax(fails))])  # raises for that row
        if not self.zoom:
            return bid
        rec = self._zoom_at[bid]
        zoomed = np.flatnonzero(rec >= 0)
        r = rec[zoomed]
        sid = self._zoom_first[r]
        for i in range(self.n):
            k = _zoom_bin(X[zoomed, i], self._zoom_width[r])
            kmin = self._zoom_kmin[r, i]
            k = np.clip(k, kmin, self._zoom_kmax[r, i]).astype(np.int64)
            sid += (k - kmin) * self._zoom_strides[r, i]
        bid[zoomed] = sid
        return bid

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
        ranges = [_axis_span(self._lowers[i], self._uppers[i], lo[i], hi[i])
                  for i in range(self.n)]
        out: List[int] = []
        for bid in _row_major(ranges, self._strides):
            z = self.zoom.get(bid)
            if z is None:
                out.append(bid)
                continue
            sub_ranges = [_axis_span(z.lowers[i], z.uppers[i], lo[i], hi[i])
                          for i in range(self.n)]
            out.extend(z.first_id + off
                       for off in _row_major(sub_ranges, z.strides))
        return sorted(out)

    def box_spans(self, box_lo, box_hi) -> Tuple[np.ndarray, np.ndarray]:
        """Per axis, the range of the unrefined lattice's regions that each
        of the (K, n) closed boxes meets (_index_spans); a box meets the
        cells of their product (box_ids, zoomed_box_ids)."""
        return _index_spans(self._lower_arrays, self._upper_arrays,
                            np.asarray(box_lo, dtype=float), np.asarray(box_hi, dtype=float))

    def box_ids(self, start, width) -> np.ndarray:
        """The ids of each row's index box (box_spans), row after row, each
        row's ascending: intersecting() of the boxes, for every row that
        holds no zoom-refined base cell (zoomed_rows)."""
        return _index_box_ids((start * self._strides).sum(axis=1), width, self._strides)

    def zoomed_rows(self, start, width) -> np.ndarray:
        """The rows, ascending, of the index boxes (box_spans) that hold a
        zoom-refined base cell."""
        hit = np.zeros(len(start), dtype=bool)
        for bid in self.zoom:
            holds = np.ones(len(start), dtype=bool)
            for i, b in enumerate(np.unravel_index(bid, self._shape)):
                holds &= (start[:, i] <= b) & (b < start[:, i] + width[:, i])
            hit |= holds
        return np.flatnonzero(hit)

    def zoomed_box_ids(self, start, width, box_lo,
                       box_hi) -> Tuple[np.ndarray, np.ndarray]:
        """intersecting() of the K closed boxes box_lo, box_hi with the index
        boxes start, width (box_spans): the (K,) row sizes, and the ids row
        after row, each row's ascending.  A box meets the unrefined cells of
        its index box and the zoom bins it meets (_index_spans; none of a
        cell outside the index box).  Subcells are numbered in the order of
        refinement, not of base ids, so rows are sorted."""
        k, ids = np.arange(len(start)), self.box_ids(start, width)
        kept = self._zoom_at[ids] < 0  # the unrefined cells
        ids, rows = [ids[kept]], [np.repeat(k, width.prod(axis=1))[kept]]
        for z in self.zoom.values():
            sub, w = _index_spans(z.lowers, z.uppers, box_lo, box_hi)
            ids.append(_index_box_ids(z.first_id + (sub * z.strides).sum(axis=1), w, z.strides))
            rows.append(np.repeat(k, w.prod(axis=1)))
        ids, rows = np.concatenate(ids), np.concatenate(rows)
        return np.bincount(rows, minlength=len(start)), ids[np.lexsort((ids, rows))]


def _index_spans(lowers, uppers, lo: np.ndarray,
                 hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per axis i, the intervals [lowers[i][j], uppers[i][j]] (tiling, in
    order) that each of the (K, n) closed boxes lo, hi meets: (start,
    width), (K, n) int64 each, for intervals start .. start + width - 1,
    from searchsorted(uppers, lo, 'left') to searchsorted(lowers, hi,
    'right').  That is _axis_span's closed rule: touching faces meet, and an
    axis with a NaN bound meets nothing (width 0)."""
    start, width = np.empty(lo.shape, dtype=np.int64), np.empty(lo.shape, dtype=np.int64)
    for i in range(lo.shape[1]):
        start[:, i] = np.searchsorted(uppers[i], lo[:, i])
        width[:, i] = np.searchsorted(lowers[i], hi[:, i], "right")
    width -= start
    width[np.isnan(lo) | np.isnan(hi) | (width < 0)] = 0
    return start, width


def _index_box_ids(first, width, strides) -> np.ndarray:
    """The ids of each row's index box, row after row: ids numbered
    row-major under strides (last axis fastest), so each row's first id is
    expanded one axis at a time, every partial id into its row's width on
    that axis, and each row's ids ascend."""
    ids, row = first, np.arange(len(first))
    for i, stride in enumerate(strides):
        w = width[row, i]
        offset = np.repeat(np.cumsum(w) - w, w)
        ids = np.repeat(ids, w) + (np.arange(len(offset)) - offset) * stride
        row = np.repeat(row, w)
    return ids
