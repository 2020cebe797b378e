"""Arc-length geometry of a closed centerline polyline.

Looks up the point, heading, pose and curvature at an arc length, and
projects points onto the polyline, the nearest segment found through a
uniform grid of the segments. The track generator and validator, the
ground-truth drivers and the planner-log evaluation all measure along the
track through it.
"""

from __future__ import annotations

import array
import bisect
import functools
import itertools
import math
import operator

import numpy as np

from .core import Pose2, normalize_angle

# The projection onto a centerline searches a uniform grid whose square cells
# are this many mean segment lengths wide
PROJECTION_CELL_SEGMENTS = 6.0
# and bounds its search with this slack, relative to the size of the
# coordinates: far above their rounding, far below a cell
PROJECTION_SLACK = 1e-9


class CenterlineGeometry:
    """Arc-length lookup (point, tangent, heading, curvature) on a closed centerline, and projection onto it.

    A lookup at one arc length is one ``bisect`` over the arc lengths and one
    segment's arithmetic in plain floats, the bits numpy gives the same
    expressions.
    """

    def __init__(self, centerline: np.ndarray):
        pts = np.asarray(centerline, dtype=float)
        closed = np.vstack([pts, pts[:1]])
        seg = np.diff(closed, axis=0)
        seg_len = np.hypot(seg[:, 0], seg[:, 1])
        if np.any(seg_len <= 0):
            raise ValueError("centerline has repeated points")
        self.points = pts
        self.cum_s = np.concatenate([[0.0], np.cumsum(seg_len)])
        self.length = float(self.cum_s[-1])
        self._seg = seg
        self._seg_len = seg_len

    @functools.cached_property
    def _floats(self) -> tuple[list[float], array.array, array.array, array.array, array.array, array.array]:
        """The arc lengths as a list, and each segment's start x, start y, dx, dy and length as ``array('d')``
        columns, whose items are the floats numpy holds, without a float object kept per value."""
        columns = (self.points[:, 0], self.points[:, 1], self._seg[:, 0], self._seg[:, 1], self._seg_len)
        return (self.cum_s.tolist(), *(array.array("d", np.ascontiguousarray(column).tobytes()) for column in columns))

    def _locate(self, s: float) -> tuple[int, float]:
        """The segment holding arc length ``s`` (taken around the loop) and the fraction of it before ``s``."""
        cum_s, *_, seg_len = self._floats
        s = s % self.length
        i = min(bisect.bisect_right(cum_s, s) - 1, len(seg_len) - 1)
        return i, (s - cum_s[i]) / seg_len[i]

    def point_at(self, s: float) -> np.ndarray:
        _, xs, ys, dxs, dys, _ = self._floats
        i, t = self._locate(s)
        return np.array([xs[i] + t * dxs[i], ys[i] + t * dys[i]])

    def heading_at(self, s: float) -> float:
        _, _, _, dxs, dys, _ = self._floats
        i, _ = self._locate(s)
        return math.atan2(dys[i], dxs[i])

    def pose_at(self, s: float) -> Pose2:
        _, xs, ys, dxs, dys, _ = self._floats
        i, t = self._locate(s)
        return Pose2(xs[i] + t * dxs[i], ys[i] + t * dys[i], math.atan2(dys[i], dxs[i]))

    def curvature_at(self, s: float, window_m: float = 2.0) -> float:
        # chord headings through interpolated points; immune to the
        # segment quantization of heading_at
        p0 = self.point_at(s - window_m / 2)
        p1 = self.point_at(s)
        p2 = self.point_at(s + window_m / 2)
        h1 = math.atan2(p1[1] - p0[1], p1[0] - p0[0])
        h2 = math.atan2(p2[1] - p1[1], p2[0] - p1[0])
        span = 0.5 * (np.hypot(*(p1 - p0)) + np.hypot(*(p2 - p1)))
        return normalize_angle(h2 - h1) / max(span, 1e-9)

    @functools.cached_property
    def _grid(self) -> tuple[float, float, float, int, int, float, dict[int, tuple]]:
        """The segments on a uniform grid: the grid's origin x and y, cell size, columns, rows and coordinate
        scale, and for each cell that a segment passes through (cell ``(kx, ky)`` is key ``kx * rows + ky``)
        the (index, start x, start y, dx, dy, squared length) of those segments, in index order.

        A segment is cut into pieces no longer than a cell, and each piece's
        bounding box, grown by the slack, names its cells.
        """
        pts, seg, seg_len = self.points, self._seg, self._seg_len
        size = PROJECTION_CELL_SEGMENTS * float(seg_len.mean())
        ends = pts + seg
        lo, hi = np.minimum(pts, ends).min(axis=0), np.maximum(pts, ends).max(axis=0)
        scale = 1.0 + float(np.abs([lo, hi]).max()) + size
        slack = PROJECTION_SLACK * scale
        origin = lo - 2.0 * slack
        nx, ny = ((hi + 2.0 * slack - origin) // size).astype(int).tolist()
        nx, ny = nx + 1, ny + 1
        pieces = np.maximum(np.ceil(seg_len / size).astype(np.intp), 1)
        owner = np.repeat(np.arange(len(seg)), pieces)
        k = (np.arange(len(owner)) - np.repeat(np.cumsum(pieces) - pieces, pieces))[:, None]
        count = pieces[owner][:, None]
        a = pts[owner] + (k / count) * seg[owner]
        b = pts[owner] + ((k + 1) / count) * seg[owner]
        top = [nx - 1, ny - 1]
        first = np.clip((np.minimum(a, b) - slack - origin) // size, 0, top).astype(np.intp)
        last = np.clip((np.maximum(a, b) + slack - origin) // size, 0, top).astype(np.intp)
        keys, rows = [], []
        for dx, dy in itertools.product(range(3), repeat=2):  # a piece's box spans at most 3 cells an axis
            kx, ky = first[:, 0] + dx, first[:, 1] + dy
            inside = (kx <= last[:, 0]) & (ky <= last[:, 1])
            keys.append(kx[inside] * ny + ky[inside])
            rows.append(owner[inside])
        keys, rows = np.concatenate(keys), np.concatenate(rows)
        order = np.lexsort((rows, keys))
        keys, rows = keys[order], rows[order]
        unique = np.ones(len(keys), bool)
        unique[1:] = (keys[1:] != keys[:-1]) | (rows[1:] != rows[:-1])
        records = list(zip(range(len(seg)), pts[:, 0].tolist(), pts[:, 1].tolist(), seg[:, 0].tolist(), seg[:, 1].tolist(), (seg_len**2).tolist()))
        cells = {
            key: tuple(records[i] for _, i in group)
            for key, group in itertools.groupby(zip(keys[unique].tolist(), rows[unique].tolist()), key=operator.itemgetter(0))
        }
        return float(origin[0]), float(origin[1]), size, nx, ny, scale, cells

    def nearest_arc_lengths(self, points: np.ndarray) -> np.ndarray:
        """Arc length of each point's exact orthogonal projection onto the polyline, (k,) for (k, 2) finite points.

        Each point takes the nearest segment, the lowest index on a tie, with
        the foot and squared distance that scanning every segment gives (the
        tests pin the two together). The candidates come from the grid:
        square rings of cells around the point's cell, until the ring's
        inner distance, less a slack far above rounding, exceeds the nearest
        distance found, or the rings cover the grid.
        """
        x0, y0, size, nx, ny, scale, cells = self._grid
        cum_s, *_, seg_len = self._floats
        out = []
        for px, py in np.asarray(points, dtype=float).reshape(-1, 2).tolist():
            if not (math.isfinite(px) and math.isfinite(py)):
                raise ValueError(f"cannot project the point ({px}, {py}) onto the centerline")
            slack = PROJECTION_SLACK * (scale + abs(px) + abs(py))
            # a point off the grid starts from the cell just outside it
            cx = min(max(math.floor((px - x0) / size), -1), nx)
            cy = min(max(math.floor((py - y0) / size), -1), ny)
            best_d2, best, best_t = math.inf, len(seg_len), 0.0  # an infinite distance still takes the lowest index
            r = 0
            while True:
                for kx in range(max(cx - r, 0), min(cx + r, nx - 1) + 1):
                    if abs(kx - cx) == r:  # a side column of the ring
                        kys = range(max(cy - r, 0), min(cy + r, ny - 1) + 1)
                    else:
                        kys = [ky for ky in (cy - r, cy + r) if 0 <= ky < ny]
                    for ky in kys:
                        for i, ax, ay, sx, sy, len2 in cells.get(kx * ny + ky, ()):
                            t = ((px - ax) * sx + (py - ay) * sy) / len2
                            t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t
                            dx, dy = px - (ax + t * sx), py - (ay + t * sy)
                            d2 = dx * dx + dy * dy
                            if d2 < best_d2 or (d2 == best_d2 and i < best):
                                best_d2, best, best_t = d2, i, t
                reach = r * size - slack
                if (reach > 0.0 and reach * reach > best_d2) or (
                    cx - r <= 0 and cy - r <= 0 and cx + r >= nx - 1 and cy + r >= ny - 1
                ):
                    break
                r += 1
            out.append(cum_s[best] + best_t * seg_len[best])
        return np.array(out, dtype=float)

    def nearest_arc_length(self, point: np.ndarray) -> float:
        """Arc length of the exact orthogonal projection of one point onto the polyline."""
        return float(self.nearest_arc_lengths(np.reshape(point, (1, 2)))[0])
