"""Acceptance suite: nine criteria, one pass/fail line each.

Each test prints "[PRIMARY n] <name>: PASS (<elapsed> < <limit>)" on
success; a failure raises inside the criterion body, so the pytest -v
status line doubles as the fail marker.
"""
import random
import time
from fractions import Fraction
from itertools import combinations

import conftest
from conftest import random_polygon
from test_assumptions import brute_delta_summand
from plucker.assumptions import full_assumption_report
from plucker.formulas import (
    bitangent_count,
    dual_area_closed,
    dual_fan,
    dual_polygon,
    inflection_count,
    vertical_tangent_count,
)
from plucker.lattice import (
    LatticePolygon,
    contains_translate,
    dilate,
    doubled_area,
    lattice_points,
    rectangle,
    rotate_r,
    standard_triangle,
    volume,
)
from plucker.oracle import (
    OracleConfig,
    implicitize_dual,
    inflection_oracle,
    vertical_tangent_oracle,
)

D = standard_triangle()
GOLDEN = LatticePolygon.hull([(0, 0), (0, 1), (1, 1)])
GOLDEN_POLY = {(1, 1): 1, (0, 1): 1, (0, 0): 1}


class _Criterion:
    def __init__(self, number: int, name: str, limit_s: float):
        self.number = number
        self.name = name
        self.limit = limit_s

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} overran: {elapsed:.2f}s >= {self.limit}s"
            )
            line = (
                f"[PRIMARY {self.number}] {self.name}: PASS "
                f"({elapsed:.2f}s < {self.limit:g}s)"
            )
        else:
            line = f"[PRIMARY {self.number}] {self.name}: FAIL"
        print(line, flush=True)
        conftest.acceptance_lines.append(line)
        return False


def test_criterion_1_classical_plucker():
    with _Criterion(1, "classical Plucker formulas on d*Delta", 1.0):
        for d in range(5, 11):
            P = dilate(D, d)
            assert inflection_count(P) == 3 * d * (d - 2)
            assert bitangent_count(P) == Fraction(
                d * (d + 3) * (d - 3) * (d - 2), 2
            )


def test_criterion_2_rectangle_table():
    with _Criterion(2, "bihomogeneous rectangle table", 1.0):
        for c in range(1, 9):
            for d in range(1, 9):
                P = rectangle(c, d)
                assert inflection_count(P) == 6 * c * d - 3 * c - 3 * d
                assert bitangent_count(P) == (
                    2 * c * c * d * d - 10 * c * d + 4 * c + 4 * d
                )
                expected = dilate(D, 2 * c * d).canonical()
                assert (
                    dual_polygon(P).canonical().vertices == expected.vertices
                )


def test_criterion_3_quasihomogeneous_table():
    with _Criterion(3, "quasihomogeneous triangle table", 1.0):
        for c in range(1, 9):
            for d in range(1, 9):
                if c == d:
                    continue
                P = LatticePolygon.hull([(0, 0), (c, 0), (0, d)])
                cd = c * d
                assert inflection_count(P) == 3 * cd - 2 * c - 2 * d
                assert bitangent_count(P) == Fraction(
                    cd * cd - 11 * cd + 6 * c + 6 * d, 2
                )
                expected = LatticePolygon.hull(
                    [(c, 0), (0, d), (0, cd), (cd, 0)]
                ).canonical()
                assert (
                    dual_polygon(P).canonical().vertices == expected.vertices
                )


def test_criterion_4_golden_example():
    with _Criterion(4, "golden dual example xy+y+1", 1.0):
        assert dual_fan(GOLDEN) == {(0, -1): 2, (1, 1): 1, (-1, 1): 1}
        expected = LatticePolygon.hull([(0, 0), (2, 0), (1, 1)]).canonical()
        assert dual_polygon(GOLDEN).canonical().vertices == expected.vertices
        rec, observed = implicitize_dual(
            GOLDEN, OracleConfig(seed=4), poly=GOLDEN_POLY
        )
        scale = rec[(1, 1)] / 4
        target = {(2, 0): 1.0, (1, 1): 4.0, (1, 0): -2.0, (0, 0): 1.0}
        assert set(rec) == set(target)
        for e, c in target.items():
            assert abs(rec[e] / scale - c) < 1e-6
        assert observed.canonical().vertices == expected.vertices


def test_criterion_5_dual_area_double_entry():
    with _Criterion(5, "dual area double entry on 200 random polygons", 10.0):
        rng = random.Random(2024)
        for _ in range(200):
            P = random_polygon(rng)
            fan = dual_fan(P)
            assert conftest.fan_sum(fan) == (0, 0)
            assert dual_area_closed(P) == volume(dual_polygon(P))


def test_criterion_6_oracle_equivalence():
    with _Criterion(6, "formula vs analytic oracle", 300.0):
        random_5d = LatticePolygon.hull([(0, 0), (6, 0), (7, 2), (5, 6), (0, 5)])
        assert contains_translate(random_5d, dilate(D, 5)) is not None
        polygons = [
            dilate(D, 5),
            dilate(D, 6),
            rectangle(3, 4),
            rectangle(5, 5),
            random_5d,
        ]
        for P in polygons:
            assert full_assumption_report(P).all_verified
            for seed in (1, 2):
                cfg = OracleConfig(seed=seed)
                assert inflection_oracle(P, cfg) == inflection_count(P)
                assert vertical_tangent_oracle(P, cfg) == vertical_tangent_count(P)


def test_criterion_7_assumption_battery():
    with _Criterion(7, "assumption battery", 30.0):
        assert full_assumption_report(dilate(D, 5)).all_verified
        assert full_assumption_report(rectangle(3, 4)).all_verified
        rep = full_assumption_report(LatticePolygon.hull([(0, 3), (1, 0), (2, 0)]))
        assert rep.a2.value == "FailsKnown"
        for k in range(6):
            thin = LatticePolygon.hull([(1, 0), (2, 0), (1 - k, 1 + 2 * k)])
            assert full_assumption_report(thin).a2.value == "FailsKnown"
        rng = random.Random(777)
        done = 0
        while done < 50:
            P = random_polygon(rng, box=9)
            if contains_translate(P, dilate(D, 5)) is None:
                continue
            done += 1
            assert full_assumption_report(P, fast_path=False).all_verified, P.vertices


def test_criterion_8_minkowski_summand_oracle():
    with _Criterion(8, "Minkowski summand test vs brute force on 3*Delta", 30.0):
        from plucker.assumptions import delta_is_summand

        pts = lattice_points(dilate(D, 3))
        for r in range(1, len(pts) + 1):
            for subset in combinations(pts, r):
                M = LatticePolygon.hull(subset)
                assert delta_is_summand(M) == brute_delta_summand(M), subset


def test_criterion_9_rotation_invariance():
    with _Criterion(9, "rotation invariance", 1.0):
        rng = random.Random(909)
        for _ in range(50):
            P = random_polygon(rng)
            R = rotate_r(P)
            assert inflection_count(R) == inflection_count(P)
            assert bitangent_count(R) == bitangent_count(P)
            assert doubled_area(R) == doubled_area(P)
            R3 = rotate_r(rotate_r(R))
            assert R3.vertices == P.canonical().vertices
