"""Independent brute-force oracles used to cross-check the library.

The tile oracle decides tile-vs-wedge intersection by exact vertex membership
and boundary-crossing predicates (segment/segment and segment/arc), with no
shared code or formulas with the library's analytic column heights.  The
detection oracle solves one segment against one treasure in plain scalar
arithmetic, the twin of the library's vectorized kernel.  The phase-trip
oracle regenerates every trip's prefix from the stream's start, and the plain
walk tests every block against every target still unseen.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from planehunt.errors import PreconditionError
from planehunt.geom import DETECTION_TOL, Point2, detection_lengths
from planehunt.sim import RunOutcome
from planehunt.traversal import flip_block, prefix_blocks, rounded, units

# Targets per kernel call in the plain walk; bounds its (segments, targets) arrays.
_PLAIN_SLAB = 256


def point_in_wedge(x: float, y: float, radius: float, wedge: float) -> bool:
    if x < 0.0 or y < 0.0:
        return False
    if x * x + y * y > radius * radius:
        return False
    if wedge < math.pi / 2.0 and y > x * math.tan(wedge):
        return False
    return True


def _orient(ax, ay, bx, by, cx, cy) -> float:
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _on_segment(ax, ay, bx, by, px, py) -> bool:
    return min(ax, bx) <= px <= max(ax, bx) and min(ay, by) <= py <= max(ay, by)


def segments_intersect(p1, p2, p3, p4) -> bool:
    d1 = _orient(*p3, *p4, *p1)
    d2 = _orient(*p3, *p4, *p2)
    d3 = _orient(*p1, *p2, *p3)
    d4 = _orient(*p1, *p2, *p4)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True
    if d1 == 0 and _on_segment(*p3, *p4, *p1):
        return True
    if d2 == 0 and _on_segment(*p3, *p4, *p2):
        return True
    if d3 == 0 and _on_segment(*p1, *p2, *p3):
        return True
    if d4 == 0 and _on_segment(*p1, *p2, *p4):
        return True
    return False


def segment_meets_arc(p1, p2, radius: float, wedge: float) -> bool:
    """Does segment p1-p2 touch the arc {radius * (cos t, sin t): 0 <= t <= wedge}?"""
    dx = p2[0] - p1[0]
    dy = p2[1] - p1[1]
    a = dx * dx + dy * dy
    b = 2.0 * (p1[0] * dx + p1[1] * dy)
    c = p1[0] * p1[0] + p1[1] * p1[1] - radius * radius
    if a == 0.0:
        return False
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return False
    root = math.sqrt(disc)
    for t in ((-b - root) / (2.0 * a), (-b + root) / (2.0 * a)):
        if 0.0 <= t <= 1.0:
            x = p1[0] + t * dx
            y = p1[1] + t * dy
            if x >= 0.0 and y >= 0.0:
                if wedge >= math.pi / 2.0 or y <= x * math.tan(wedge):
                    return True
    return False


def tile_meets_wedge(u: int, v: int, tile: float, radius: float, wedge: float) -> bool:
    """Positive-area intersection of tile (u, v) with the wedge region.

    Runs the closed-set predicates on a hairline-shrunk tile, so zero-area
    boundary grazes (a corner exactly on a wedge ray) do not count, matching
    the library's column rule.
    """
    eps = 1e-9 * tile
    x0, x1 = u * tile + eps, (u + 1) * tile - eps
    y0, y1 = v * tile + eps, (v + 1) * tile - eps
    corners = ((x0, y0), (x1, y0), (x1, y1), (x0, y1))
    if any(point_in_wedge(x, y, radius, wedge) for x, y in corners):
        return True
    tip_x = radius * math.cos(wedge) if wedge < math.pi / 2.0 else 0.0
    tip_y = radius * math.sin(wedge) if wedge < math.pi / 2.0 else radius
    for px, py in ((0.0, 0.0), (radius, 0.0), (tip_x, tip_y)):
        if x0 <= px <= x1 and y0 <= py <= y1:
            return True
    edges = (
        ((x0, y0), (x1, y0)),
        ((x1, y0), (x1, y1)),
        ((x1, y1), (x0, y1)),
        ((x0, y1), (x0, y0)),
    )
    rays = (((0.0, 0.0), (radius, 0.0)), ((0.0, 0.0), (tip_x, tip_y)))
    for e1, e2 in edges:
        for r1, r2 in rays:
            if segments_intersect(e1, e2, r1, r2):
                return True
        if segment_meets_arc(e1, e2, radius, wedge):
            return True
    return False


def oracle_columns(radius: float, tile: float, wedge: float) -> dict[int, list[int]]:
    """Per-column sorted row lists of tiles meeting the wedge, brute force."""
    n_u = math.ceil(radius / tile)
    v_hi = int(radius / tile) + 2
    out: dict[int, list[int]] = {}
    for u in range(n_u):
        rows = [v for v in range(v_hi) if tile_meets_wedge(u, v, tile, radius, wedge)]
        out[u] = rows
    return out


def oracle_tile_count(radius: float, tile: float, wedge: float) -> int:
    return sum(len(rows) for rows in oracle_columns(radius, tile, wedge).values())


def earliest_detection_on_segment(a, b, q, r: float) -> Optional[float]:
    """Smallest arc length t in [0, |ab|] whose point lies within r of q.

    Closed comparison (distance <= r, absolute slack DETECTION_TOL); returns
    None when the segment never comes within the radius.  Uses the
    cancellation-safe quadratic root for grazing approaches.
    """
    if not r > 0.0:
        raise PreconditionError("vision radius must be positive")
    ax, ay = (float(v) for v in a)
    bx, by = (float(v) for v in b)
    qx, qy = (float(v) for v in q)
    wx = qx - ax
    wy = qy - ay
    d0 = math.hypot(wx, wy)
    reach = r + DETECTION_TOL
    if d0 <= reach:
        return 0.0
    seg_len = math.hypot(bx - ax, by - ay)
    if seg_len == 0.0:
        return None
    ux = (bx - ax) / seg_len
    uy = (by - ay) / seg_len
    proj = wx * ux + wy * uy
    if proj <= 0.0:
        return None
    t_close = min(proj, seg_len)
    dmin = math.hypot(ax + t_close * ux - qx, ay + t_close * uy - qy)
    if dmin > reach:
        return None
    c = d0 * d0 - r * r
    disc = proj * proj - c
    if disc > 0.0:
        t = c / (proj + math.sqrt(disc))
        if t <= seg_len:
            return t
    return t_close


def regenerated_phase_trips(streams, arcs):
    """``phase_trips`` the plain way: every trip cuts a fresh prefix of its
    stream, and tags the ``walked`` blocks its previous trip walked whole."""
    walked = [0] * len(streams)
    for arc in arcs:
        for i, stream in enumerate(streams):
            forward = prefix_blocks(stream.blocks(), arc)
            for j, block in enumerate(forward):
                yield block._replace(retrace=True) if j < walked[i] else block
            for block in reversed(forward):
                yield flip_block(block)
            walked[i] = len(forward) - 1


def plain_walk(stream, targets, r: float, cap: float) -> list:
    """One ``RunOutcome`` per target of the (k, 2) ``targets``, from a walk of
    ``stream`` that sends every block, tagged ``retrace`` or not, to the
    detection kernel with every target not yet seen: no reach culling and no
    tag skipping.  Costs and detection points use the walker's arithmetic:
    the walked arc adds exact block totals in units, a detection costs its
    segment's start arc, rounded, plus the arc along it, and a cap crossing
    is found by trying each segment in turn.
    """
    targets = np.asarray(targets, dtype=np.float64)
    start = stream.start
    out = [None] * targets.shape[0]
    for i, (qx, qy) in enumerate(targets):
        if math.hypot(qx - start.x, qy - start.y) <= r + DETECTION_TOL:
            out[i] = RunOutcome(True, 0.0, Point2(start.x, start.y), 0)
    walked, done, limit = 0, 0, units(cap)
    for block in stream.blocks():
        unseen = np.array([i for i, o in enumerate(out) if o is None], dtype=np.int64)
        if not unseen.size:
            break
        pts = block.points
        for lo in range(0, unseen.size, _PLAIN_SLAB):
            idx = unseen[lo : lo + _PLAIN_SLAB]
            t = detection_lengths(pts, targets[idx], r)
            hit = ~np.isnan(t)
            for col in np.flatnonzero(hit.any(axis=0)):
                seg = int(np.argmax(hit[:, col]))
                c = rounded(walked + block.arc(seg)) + float(t[seg, col])
                if c <= cap:
                    (ax, ay), (bx, by) = pts[seg], pts[seg + 1]
                    geo = math.hypot(bx - ax, by - ay)
                    frac = float(t[seg, col]) / geo if geo > 0.0 else 0.0
                    point = Point2(float(ax + frac * (bx - ax)), float(ay + frac * (by - ay)))
                    out[idx[col]] = RunOutcome(True, c, point, done + seg + 1)
        m = block.lengths.size
        if walked + block.total > limit:
            done += next(s for s in range(m) if walked + block.arc(s + 1) >= limit) + 1
            walked = limit
            break
        walked, done = walked + block.total, done + m
    cost = rounded(walked)
    return [o if o is not None else RunOutcome(False, cost, None, done) for o in out]


def column_heights_where(wedge_angle: float, radius: float, r: float, u_lo: int, u_hi: int) -> np.ndarray:
    """``tiling.column_heights`` the plain way: every formula on every column, then picked by ``np.where``."""
    u = np.arange(u_lo, u_hi, dtype=np.float64)
    x_lo = u * r
    x_hi = np.minimum((u + 1.0) * r, radius)
    rr = radius * radius
    y_arc = np.sqrt(np.maximum(rr - x_lo * x_lo, 0.0))
    if wedge_angle >= math.pi / 2.0:
        y_max = y_arc
    else:
        tan_w = math.tan(wedge_angle)
        x_cross = radius * math.cos(wedge_angle)
        y_peak = radius * math.sin(wedge_angle)
        y_max = np.where(x_hi <= x_cross, x_hi * tan_w, np.where(x_lo >= x_cross, y_arc, y_peak))
    v = np.ceil(y_max / r).astype(np.int64) - 1
    return np.maximum(v, 0)
