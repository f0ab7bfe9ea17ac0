"""The four workloads as fixed, seeded lists of operations.

One list is one round; a run repeats whole rounds, so every run does the
same work in the same proportions.  ``--seed`` picks the random polygons
and the translations applied to the fixed families.  Oracle seeds are
fixed: the oracle's cost moves by a factor of two between samples of the
same polygon, and a sample that degenerates five times in a row would fail
on some benchmark seeds only.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from geom import FIVE_DELTA, canonical, contains_translate, hull, rotate, thin_triangle, translate

# Exit code 4 of ``implicitize`` on these inputs comes from the absolute
# singular-value test in ``_implicitize_once`` (README, "dualfit").
KNOWN_FAULTY = {4}


@dataclass(frozen=True)
class Op:
    label: str
    kind: str  # a CLI subcommand, or "nofast" for full_assumption_report(P, fast_path=False)
    points: tuple
    seed: int = 1
    advisory: bool = False
    allowed_exit: frozenset = frozenset()  # exit codes counted as failed, not as wrong
    group: str = ""  # ops compared with each other after a round
    role: str = "base"  # "base", "translate" or "rotate" within a group
    offset: tuple = (0, 0)  # the translation applied for role "translate"
    family: tuple = ()  # ("dD", d), ("rect", c, d), ("tri", c, d) or ("thin", k)


def delta(d):
    return [(0, 0), (d, 0), (0, d)]


def rect(c, d):
    return [(0, 0), (c, 0), (c, d), (0, d)]


def tri(c, d):
    return [(0, 0), (c, 0), (0, d)]


def random_polygon(rng: random.Random, box: int, max_points: int) -> list:
    while True:
        n = rng.randint(3, max_points)
        pts = [(rng.randint(0, box), rng.randint(0, box)) for _ in range(n)]
        verts = hull(pts)
        if len(verts) >= 3:
            return verts


def _curve_polygon(rng: random.Random, box: int, max_points: int) -> list:
    """A random polygon that is not a translate of the unit triangle.  The
    dual of a line is a point, and report, dual and render exit 2 on it
    (CHANGES.md, FOUND)."""
    while True:
        verts = random_polygon(rng, box, max_points)
        if canonical(verts) != canonical(delta(1)):
            return verts


def small_polygons(box: int) -> list:
    """Every 2-dimensional convex lattice polygon with vertices in
    [0,box]^2, one per translation class, in a fixed order."""
    pts = [(x, y) for x in range(box + 1) for y in range(box + 1)]
    found = set()
    for mask in range(1, 1 << len(pts)):
        verts = hull(p for i, p in enumerate(pts) if mask >> i & 1)
        if len(verts) >= 3:
            found.add(canonical(verts))
    return [hull(c) for c in sorted(found)]


def _offset(rng: random.Random) -> tuple:
    return (rng.randint(-50, 50), rng.randint(-50, 50))


def _op(kind, label, verts, rng=None, **kw) -> Op:
    """An op on ``verts`` moved by a seeded translation (when rng is given)."""
    if rng is not None:
        verts = translate(verts, _offset(rng))
    return Op(label=label, kind=kind, points=tuple(map(tuple, verts)), **kw)


def survey(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []
    families = (
        [(f"{d}Delta", delta(d), ("dD", d)) for d in range(2, 9)]
        + [(f"rect{c}x{d}", rect(c, d), ("rect", c, d)) for c in range(1, 5) for d in range(c, 5)]
        + [(f"tri{c},{d}", tri(c, d), ("tri", c, d)) for c in range(1, 5) for d in range(1, 5) if c != d]
    )
    for label, verts, fam in families:
        ops.append(_op("report", label, verts, rng, family=fam))
    for label, verts, fam in families[::4]:
        ops.append(_op("dual", label, verts, rng, family=fam))
    # render is kept to small polygons so that it does not carry the round
    for label, verts, fam in families[:2] + families[7:9]:
        ops.append(_op("render", label, verts, rng, family=fam))
    for i in range(12):
        base = _curve_polygon(rng, box=10, max_points=8)
        g = f"rand{i}"
        t = _offset(rng)
        ops.append(_op("report", g, base, group=g))
        ops.append(_op("report", g + "+t", translate(base, t), group=g, role="translate", offset=t))
        ops.append(_op("report", g + "r", rotate(base), group=g, role="rotate"))
        ops.append(_op("dual", g, base, group=g))
    for i in range(4):
        ops.append(_op("render", f"small{i}", _curve_polygon(rng, box=4, max_points=5)))
    return ops


def battery(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []
    for d in (2, 3, 4):
        ops.append(_op("assumptions", f"{d}Delta", delta(d), rng, family=("dD", d)))
    for c, d in ((1, 1), (1, 2), (1, 3), (2, 2)):
        ops.append(_op("assumptions", f"rect{c}x{d}", rect(c, d), rng, family=("rect", c, d)))
    for c, d in ((2, 3), (2, 4), (3, 4)):
        ops.append(_op("assumptions", f"tri{c},{d}", tri(c, d), rng, family=("tri", c, d)))
    for k in range(6):
        ops.append(_op("assumptions", f"thin{k}", thin_triangle(k), rng, family=("thin", k)))
        ops.append(_op("assumptions", f"thin{k}r", rotate(thin_triangle(k)), rng, family=("thin", k)))
    # Every convex lattice polygon in [0,2]^2, up to translation, moved by
    # the seed: the bulk of the list, and the same for every seed, so that
    # the median operation does not move with the seed.
    for i, verts in enumerate(small_polygons(2)):
        ops.append(_op("assumptions", f"box2.{i}", verts, rng))
    for i in range(12):
        base = random_polygon(rng, box=3, max_points=6)
        g = f"rand{i}"
        t = _offset(rng)
        ops.append(_op("assumptions", g, base, group=g))
        ops.append(_op("assumptions", g + "+t", translate(base, t), group=g, role="translate", offset=t))
    done = 0
    while done < 8:
        verts = random_polygon(rng, box=9, max_points=8)
        if contains_translate(verts, FIVE_DELTA):
            ops.append(_op("nofast", f"5Delta-in{done}", verts))
            done += 1
    return ops


# All assumptions Verified, so no --advisory; inflections 10, 10, 21, 45.
# The middle of the list is tri-slab at oracle seed 1 under five
# translations, next to quad at two seeds of about the same cost: the
# oracle samples the same curve for every translate, so the median
# operation is one small computation measured five times a round, while
# 5Delta carries about half of the round's time.
_VERIFY = [
    ("tri-slab", [(0, 0), (3, 0), (3, 2)], (), (1,), 5),
    ("quad", [(0, 0), (2, 0), (3, 1), (3, 2)], (), (2, 4), 1),
    ("rect2x3", rect(2, 3), ("rect", 2, 3), (1, 2), 1),
    ("5Delta", delta(5), ("dD", 5), (1,), 1),
]


def verify(seed: int) -> list[Op]:
    rng = random.Random(seed)
    return [
        _op("verify", f"{label}@{s}" + (f"#{k}" if copies > 1 else ""), verts, rng, seed=s, family=fam)
        for label, verts, fam, seeds, copies in _VERIFY
        for s in seeds
        for k in range(copies)
    ]


# Dual support at most 40 points.  Oracle seeds at which implicitization
# succeeds, except the two kept failing ones (README, "dualfit").  Only
# the last two polygons have all assumptions Verified; the others need
# --advisory.
_DUALFIT = [
    ("2Delta", delta(2), (1, 2)),
    ("3Delta", delta(3), (2, 3)),
    ("rect1x1", rect(1, 1), (1,)),
    ("rect1x2", rect(1, 2), (1, 2)),
    ("rect1x3", rect(1, 3), (3, 5)),
    ("tri1,2", tri(1, 2), (1,)),
    ("tri1,3", tri(1, 3), (1,)),
    ("tri2,3", tri(2, 3), (1, 2)),
    ("thin1", thin_triangle(1), (1, 2)),
    ("pentagon", [(0, 0), (2, 0), (2, 1), (1, 2), (0, 1)], (1, 2)),
    ("tri-slab", [(0, 0), (3, 0), (3, 2)], (6, 7, 1)),
    ("quad", [(0, 0), (2, 0), (3, 1), (3, 2)], (9, 1)),
]
_DUALFIT_FAILING = {("tri-slab", 1), ("quad", 1)}
_VERIFIED = {"tri-slab", "quad"}


def dualfit(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []
    for label, verts, seeds in _DUALFIT:
        moved = translate(verts, _offset(rng))
        ops.append(_op("dual", label, moved, group=label))
        for s in seeds:
            failing = (label, s) in _DUALFIT_FAILING
            ops.append(
                _op(
                    "implicitize",
                    f"{label}@{s}",
                    moved,
                    seed=s,
                    advisory=label not in _VERIFIED,
                    allowed_exit=frozenset(KNOWN_FAULTY) if failing else frozenset(),
                    group=label,
                )
            )
    return ops


WORKLOADS = {"survey": survey, "battery": battery, "verify": verify, "dualfit": dualfit}

# One cheap call of each kind a workload uses, made during set-up.
WARMUP = {
    "survey": [Op("w", k, tuple(delta(2))) for k in ("report", "dual", "render")],
    "battery": [Op("w", "assumptions", tuple(delta(2))), Op("w", "nofast", tuple(FIVE_DELTA))],
    "verify": [Op("w", "verify", ((0, 0), (2, 0), (3, 1), (3, 2)), seed=3)],
    "dualfit": [Op("w", k, tuple(tri(1, 2)), advisory=True) for k in ("dual", "implicitize")],
}
