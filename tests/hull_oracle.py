"""Independent Dmax oracle: the distance from the origin to the convex hull
of W's eigenvalues, by a monotone-chain hull in the plane.

This is the former library implementation of the worst-case distance.
The library now reads Dmax off the shortest arc holding W's eigenphases;
the hull route shares nothing with it beyond `eigvals`.
"""

from __future__ import annotations

import math

import numpy as np

# Eigenvalues closer than this are treated as one hull vertex.
_SNAP_TOL = 1e-12


def _snap_points(points: np.ndarray) -> list[tuple[float, float]]:
    """Collapse complex points closer than _SNAP_TOL into one representative."""
    order = np.lexsort((points.imag, points.real))
    snapped: list[tuple[float, float]] = []
    for idx in order:
        p = (float(points[idx].real), float(points[idx].imag))
        if snapped and math.hypot(p[0] - snapped[-1][0], p[1] - snapped[-1][1]) <= _SNAP_TOL:
            continue
        snapped.append(p)
    return snapped


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _convex_hull(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Monotone-chain hull, counter-clockwise, no repeated endpoint.

    Collinear input degenerates to its two extreme points; a single
    point comes back unchanged.
    """
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _segment_distance(p, a, b) -> float:
    """Distance from point p to segment ab."""
    ax, ay = a
    vx, vy = b[0] - ax, b[1] - ay
    seg2 = vx * vx + vy * vy
    if seg2 == 0.0:
        return math.hypot(p[0] - ax, p[1] - ay)
    t = ((p[0] - ax) * vx + (p[1] - ay) * vy) / seg2
    t = min(1.0, max(0.0, t))
    return math.hypot(p[0] - (ax + t * vx), p[1] - (ay + t * vy))


def min_modulus_over_numerical_range(w: np.ndarray) -> float:
    """min_phi |<phi|W|phi>| for a normal matrix W.

    The numerical range of a normal matrix is the convex hull of its
    eigenvalues, so this is the distance from the origin to the hull
    (0 when the origin lies inside or on it).
    """
    eig = np.linalg.eigvals(w)
    pts = _snap_points(eig)
    hull = _convex_hull(pts)
    origin = (0.0, 0.0)
    if len(hull) == 1:
        return math.hypot(*hull[0])
    if len(hull) == 2:
        return _segment_distance(origin, hull[0], hull[1])
    inside = True
    for i in range(len(hull)):
        if _cross(hull[i], hull[(i + 1) % len(hull)], origin) < 0.0:
            inside = False
            break
    if inside:
        return 0.0
    return min(
        _segment_distance(origin, hull[i], hull[(i + 1) % len(hull)])
        for i in range(len(hull))
    )


def hull_worst_distance(w: np.ndarray) -> float:
    """Dmax = sqrt(1 - mu^2) with mu the hull's distance from the origin."""
    mu = min(1.0, min_modulus_over_numerical_range(w))
    return math.sqrt(max(0.0, 1.0 - mu * mu))
