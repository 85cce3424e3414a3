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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import product
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


@dataclass(eq=False)
class Cell:
    """An axis-aligned box region owning one quantized lattice point.

    The quantized point lies in the unclipped quantization region; after
    clipping to the state box and boundary merging it may sit on or outside
    the stored bounds.
    """

    id: int
    lower: np.ndarray
    upper: np.ndarray
    quantized_point: np.ndarray

    def contains(self, x) -> bool:
        return bool(np.all(self.lower <= x) and np.all(x <= self.upper))

    def intersects(self, box_lo, box_hi) -> bool:
        """Closed-box intersection test; boundary touching counts."""
        return bool(np.all(self.lower <= box_hi) and np.all(box_lo <= self.upper))

    def spread(self) -> np.ndarray:
        """Componentwise max distance from the quantized point to the cell."""
        return np.maximum(self.quantized_point - self.lower,
                          self.upper - self.quantized_point)


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


def _grid_cells(axes: List[List[AxisRegion]], first_id: int) -> List[Cell]:
    """The cells of the product of the per-axis regions, ids counting from
    first_id in row-major order (last axis fastest)."""
    return [Cell(first_id + k, np.array([r.lower for r in regions]),
                 np.array([r.upper for r in regions]),
                 np.array([r.level for r in regions]))
            for k, regions in enumerate(product(*axes))]


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


def _zoom_axes(cell: Cell,
               p: ZoomQuantizerParams) -> Tuple[List[List[int]], List[List[AxisRegion]]]:
    """Per axis, the retained bin indices k (_zoom_axis_ks) and the zoom
    bins [(k-0.5)w, (k+0.5)w] of those k, clipped to the cell; leftover
    remainders at the cell edges join the outermost bin."""
    w = p.width
    axis_ks, axes = [], []
    for lo, hi in zip(cell.lower.tolist(), cell.upper.tolist()):
        ks = _zoom_axis_ks(lo, hi, p)
        axis_ks.append(ks)
        axes.append([AxisRegion(lo if j == 0 else (k - 0.5) * w,
                                hi if j == len(ks) - 1 else (k + 0.5) * w, k * w)
                     for j, k in enumerate(ks)])
    return axis_ks, axes


def zoom_lattice(cell: Cell, p: ZoomQuantizerParams, start_id: int = 0) -> List[Cell]:
    """Refine one cell into zoom subcells (row-major ids from start_id), the
    product of its _zoom_axes bins.  delta = 0 returns the cell unchanged.
    """
    if p.delta == 0.0:
        return [cell]
    return _grid_cells(_zoom_axes(cell, p)[1], start_id)


# ---------------------------------------------------------------------------
# partition of the state box with optional per-cell zoom refinement


class _ZoomedCell:
    """The one record of a zoom-refined base cell, filled once by
    Partition.refined: its parameters, the id of its first subcell and the
    count of its subcells, per axis the retained bin indices (consecutive)
    and their bins (_zoom_axes), whose product gives the subcells in
    row-major order, and the bin bounds and subcell strides that locate and
    intersecting read."""

    def __init__(self, params: ZoomQuantizerParams, first_id: int, cell: Cell):
        self.params, self.first_id = params, first_id
        self.axis_ks, self.axes = _zoom_axes(cell, params)
        self.lowers = [[r.lower for r in ax] for ax in self.axes]
        self.uppers = [[r.upper for r in ax] for ax in self.axes]
        shape = tuple(len(ks) for ks in self.axis_ks)
        self.strides = _strides(shape)
        self.count = int(np.prod(shape))


class Partition:
    """A cover of a box by logarithmic cells, some zoom-refined.

    Owns deterministic point location (the refinement map F restricted to
    state vectors) and box-intersection queries used by the abstraction
    builder.  Cells keep stable ids across refinement: refined base cells
    retire their id and subcells receive fresh ids appended in order.
    zoom maps each refined base cell's id to its one record (_ZoomedCell),
    which refined() fills; the subcells, the cell table (cell_arrays),
    point location and box queries all read it.  The unrefined lattice
    (axes, bound lists, base cells) is never changed after construction,
    so a refined partition shares it with the partition it refines and
    builds only its zoom tables.
    """

    def __init__(self, box_lo, box_hi, params):
        self.box_lo = np.asarray(box_lo, dtype=float)
        self.box_hi = np.asarray(box_hi, dtype=float)
        self.n = len(self.box_lo)
        self.params = _as_axis_params(params, self.n)
        self.axes: List[List[AxisRegion]] = [
            _axis_regions(float(self.box_lo[i]), float(self.box_hi[i]), self.params[i])
            for i in range(self.n)
        ]
        self._shape = tuple(len(ax) for ax in self.axes)
        self._strides = _strides(self._shape)
        # per-axis bound lists for bisection: regions tile the axis in order
        self._lowers = [[r.lower for r in ax] for ax in self.axes]
        self._uppers = [[r.upper for r in ax] for ax in self.axes]
        # the upper bounds as arrays for locate_batch; _bump[i][j] marks a
        # boundary uppers[i][j] that goes to region j+1 (the smaller level)
        self._upper_arrays = [np.array(u) for u in self._uppers]
        self._bump = [np.array([abs(b.level) < abs(a.level)
                                for a, b in zip(ax, ax[1:])] + [False])
                      for ax in self.axes]
        self.base_cells = _grid_cells(self.axes, 0)
        self.zoom: Dict[int, _ZoomedCell] = {}
        self._rebuild_active()

    # -- construction ------------------------------------------------------

    def _rebuild_active(self) -> None:
        self.cells = [c for c in self.base_cells if c.id not in self.zoom]
        for bid in sorted(self.zoom):
            z = self.zoom[bid]
            self.cells.extend(_grid_cells(z.axes, z.first_id))
        self.cells.sort(key=lambda c: c.id)
        self._by_id = {c.id: c for c in self.cells}
        # the cell table of cell_arrays, NaN on retired ids, and, per base
        # cell, the zoom tables of locate_batch: first subcell id (-1 where
        # unrefined), bin width, retained bin range and strides per axis
        ids = np.array([c.id for c in self.cells])
        rows = np.array([(c.lower, c.upper, c.quantized_point) for c in self.cells])
        self._table = np.full((4, ids[-1] + 1, self.n), np.nan)
        self._table[:3, ids] = rows.transpose(1, 0, 2)
        self._table[3, ids] = (rows[:, 1] - rows[:, 0]) / 2.0
        for z in self.zoom.values():
            self._table[3, z.first_id:z.first_id + z.count] = z.params.width
        n_base = len(self.base_cells)
        self._zoom_first = np.full(n_base, -1, dtype=np.int64)
        self._zoom_width = np.ones(n_base)
        self._zoom_kmin, self._zoom_kmax, self._zoom_strides = \
            np.zeros((3, n_base, self.n), dtype=np.int64)
        for bid, z in self.zoom.items():
            self._zoom_first[bid] = z.first_id
            self._zoom_width[bid] = z.params.width
            self._zoom_kmin[bid] = [ks[0] for ks in z.axis_ks]
            self._zoom_kmax[bid] = [ks[-1] for ks in z.axis_ks]
            self._zoom_strides[bid] = z.strides

    def refined(self, assignments: Dict[int, ZoomQuantizerParams]) -> "Partition":
        """New partition with the given base cells zoom-refined; it shares
        this partition's unrefined lattice."""
        part = copy.copy(self)
        part.zoom = dict(self.zoom)
        next_id = max((c.id for c in self.cells), default=-1) + 1
        for bid in sorted(assignments):
            p = assignments[bid]
            if bid in part.zoom:
                raise ValueError(f"cell {bid} is already zoom-refined")
            if not 0 <= bid < len(self.base_cells):
                if bid in self._by_id:
                    raise ValueError(f"cell {bid} is a zoom subcell; refine base cells only")
                raise ValueError(f"unknown cell id {bid}")
            if p.delta == 0.0:
                continue  # keep the cell
            z = part.zoom[bid] = _ZoomedCell(p, next_id, self.base_cells[bid])
            next_id += z.count
        part._rebuild_active()
        return part

    # -- queries -----------------------------------------------------------

    def cell(self, cid: int) -> Cell:
        return self._by_id[cid]

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
        first = self._zoom_first[bid]
        zoomed = np.flatnonzero(first >= 0)
        if fails.any():
            self.locate(X[int(np.argmax(fails))])  # raises for that row
        if zoomed.size:
            b = bid[zoomed]
            sid = first[zoomed]
            for i in range(self.n):
                k = _zoom_bin(X[zoomed, i], self._zoom_width[b])
                kmin = self._zoom_kmin[b, i]
                k = np.clip(k, kmin, self._zoom_kmax[b, i]).astype(np.int64)
                sid += (k - kmin) * self._zoom_strides[b, i]
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
