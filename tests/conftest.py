import math
import random
import sys

import pytest

from plucker import lattice
from plucker.formulas import dual_fan
from plucker.lattice import LatticePolygon, Point, _ray_angle_cmp, add, lattice_points, neg, segment_length

# filled by the acceptance suite, echoed after the test run
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.line(line)


def random_polygon(
    rng: random.Random, box: int = 10, max_points: int = 8
) -> LatticePolygon:
    """A 2-dimensional lattice polygon with vertices in [0, box]^2."""
    while True:
        n = rng.randint(3, max_points)
        pts = [(rng.randint(0, box), rng.randint(0, box)) for _ in range(n)]
        P = LatticePolygon.hull(pts)
        if P.dim == 2:
            return P


def lattice_classes(side: int) -> set[LatticePolygon]:
    """Every translation class of 2-dimensional lattice polygons in
    [0, side]^2, in canonical form.  Each polygon in the box is the CCW walk
    of its vertices from the lowest (then leftmost) one whose steps turn
    strictly left, so the walks are listed by their vertex sets, not by
    hulling every subset of the box."""
    box = [(x, y) for y in range(side + 1) for x in range(side + 1)]
    classes = set()

    def walk(path: list[Point], last: "Point | None") -> None:
        (sx, sy), (cx, cy) = path[0], path[-1]
        if len(path) >= 3 and _ray_angle_cmp(last, (sx - cx, sy - cy)) < 0:
            classes.add(LatticePolygon.hull(path).canonical())
        for qx, qy in box:
            step = (qx - cx, qy - cy)
            if (qy, qx) <= (sy, sx) or (last is not None and _ray_angle_cmp(last, step) >= 0):
                continue
            # the start stays strictly left of every step, or the walk cannot close
            if len(path) == 1 or step[0] * (sy - cy) - step[1] * (sx - cx) > 0:
                walk(path + [(qx, qy)], step)

    for start in box[: side + 1]:  # each class has a translate with its lowest vertex on y = 0
        walk([start], None)
    return classes


def minkowski_sum(P: LatticePolygon, Q: LatticePolygon) -> LatticePolygon:
    return LatticePolygon.hull(add(p, q) for p in P.vertices for q in Q.vertices)


def negate(P: LatticePolygon) -> LatticePolygon:
    return LatticePolygon.hull(neg(v) for v in P.vertices)


def window_scan_translate(P: LatticePolygon, Q) -> "Point | None":
    """The least translation t, tx then ty, with Q + t inside P, by testing
    every translate in the difference of the bounding boxes: a reference
    for ``contains_translate`` that goes through ``LatticePolygon.contains_point``."""
    qpts = list(Q.vertices) if isinstance(Q, LatticePolygon) else list(Q)
    (pxl, pyl), (pxh, pyh) = P.bounding_box()
    qxl = min(p[0] for p in qpts)
    qyl = min(p[1] for p in qpts)
    qxh = max(p[0] for p in qpts)
    qyh = max(p[1] for p in qpts)
    if qxh - qxl > pxh - pxl or qyh - qyl > pyh - pyl:
        return None
    for tx in range(pxl - qxl, pxh - qxh + 1):
        for ty in range(pyl - qyl, pyh - qyh + 1):
            if all((qx + tx, qy + ty) in P for qx, qy in qpts):
                return (tx, ty)
    return None


def support_face(P: LatticePolygon, g: Point) -> tuple[Point, ...]:
    """The vertices of P on which <g, .> is maximal: one for a vertex face,
    two for an edge.  A plain vertex scan, kept independent of ``edge_fan``
    so that it can serve as a reference for it."""
    u, v = g
    best = max(u * x + v * y for x, y in P.vertices)
    return tuple(p for p in P.vertices if u * p[0] + v * p[1] == best)


def face_length(P: LatticePolygon, g: Point) -> int:
    """Lattice length of P's face at g by the vertex scan; 0 at a vertex."""
    face = support_face(P, g)
    return segment_length(face[0], face[-1])


def fan_sum(fan: dict[Point, int]) -> Point:
    """The weighted sum of a fan's rays: (0, 0) exactly when it balances."""
    return (
        sum(u * w for (u, _), w in fan.items()),
        sum(v * w for (_, v), w in fan.items()),
    )


def walked_dual_polygon(P: LatticePolygon) -> LatticePolygon:
    """The dual polygon as the hull of its fan walk: each ray (g, w) of
    ``dual_fan(P)``, in order of angle, steps w times g turned a quarter
    turn left.  A reference for ``dual_polygon``, which reads the walk as
    the vertex cycle without taking its hull."""
    fan = dual_fan(P)
    walk = [(0, 0)]
    for u, v in sorted(fan, key=lambda g: math.atan2(g[1], g[0])):
        x, y = walk[-1]
        walk.append((x - v * fan[(u, v)], y + u * fan[(u, v)]))
    return LatticePolygon.hull(walk).canonical()


@pytest.fixture
def edge_fan_calls(monkeypatch):
    """A list that grows by one entry per ``edge_fan`` call, counted through
    every plucker module that holds the function."""
    calls = []
    original = lattice.edge_fan

    def counted(P):
        calls.append(P)
        return original(P)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "plucker" and vars(module).get("edge_fan") is original:
            monkeypatch.setattr(module, "edge_fan", counted)
    return calls


@pytest.fixture
def listed_once():
    """Empties the lattice-point memo; the returned check then requires
    that the given polygon alone was listed since, once: one memo miss,
    and the polygon still remembered."""
    lattice_points.cache_clear()

    def check(P):
        assert lattice_points.cache_info().misses == 1
        lattice_points(P)
        assert lattice_points.cache_info().misses == 1

    return check
