"""Per-layer counters for the traced run.

``Tracer.install`` replaces each probed function of the program, in every
``plucker`` module that holds it, by a wrapper that counts calls and adds
up wall time; ``uninstall`` puts the originals back.  A call made while
the same probe is already open is counted but not timed again, so a
probe's time is the time spent inside it, once.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter


def _solutions(tracer, args, result):
    tracer.total["oracle.solutions"] += result


def _resultant(tracer, args, result):
    degree = max(e[0] for e in result.terms) if result.terms else 0
    bits = max(abs(int(c)).bit_length() for c in result.terms.values()) if result.terms else 0
    tracer.peak["oracle.resultant.degree"] = max(tracer.peak["oracle.resultant.degree"], degree)
    tracer.peak["oracle.resultant.bits"] = max(tracer.peak["oracle.resultant.bits"], bits)


def _svg(tracer, args, result):
    tracer.total["render.svg_bytes"] += len(result.encode())


def _emitted(tracer, args, result):
    tracer.total["cli.output_bytes"] += len(args[0].encode()) + 1


# (probe, module, function, observer).  Several functions may share a probe.
PROBES = [
    ("lattice.lattice_points", "lattice", "lattice_points", None),
    ("lattice.contains_translate", "lattice", "contains_translate", None),
    ("lattice.mixed_volume", "lattice", "mixed_volume", None),
    ("formulas.dual_fan", "formulas", "dual_fan", None),
    ("formulas.plucker_report", "formulas", "plucker_report", None),
    ("formulas.dual_area_closed", "formulas", "dual_area_closed", None),
    ("assumptions.check_assumption1", "assumptions", "check_assumption1", None),
    ("assumptions.check_assumption3", "assumptions", "check_assumption3", None),
    ("assumptions.qd_candidates", "assumptions", "is_class_Qd", None),
    ("assumptions.summand_tests", "assumptions", "delta_is_summand", None),
    ("assumptions.five_r", "assumptions", "_contains_5R", None),
    ("oracle.calls", "oracle", "inflection_oracle", None),
    ("oracle.calls", "oracle", "vertical_tangent_oracle", None),
    ("oracle.attempts", "oracle", "count_torus_solutions", _solutions),
    ("oracle.hessian", "oracle", "hessian_curve", None),
    ("oracle.resultant", "oracle", "resultant_y", _resultant),
    ("oracle.roots", "oracle", "roots_of_int_poly", None),
    ("oracle.dual_sample", "oracle", "sample_dual_points", None),
    ("oracle.implicitize", "oracle", "implicitize_dual", None),
    ("oracle.implicitize.attempts", "oracle", "_implicitize_once", None),
    ("cli.parse", "cli", "read_polygon", None),
    ("cli.serialize", "cli", "report_json", None),
    ("cli.serialize", "cli", "assumptions_json", None),
    ("cli.serialize", "cli", "polygon_json", None),
    ("cli.serialize", "cli", "fan_json", None),
    ("cli.serialize", "cli", "_emit", _emitted),
    ("cli.assumption_gate", "cli", "_require_verified_or_advisory", None),
    ("render.svg", "cli", "svg_report", _svg),
]


class _JsonShim:
    """Stands in for ``json`` inside ``plucker.cli`` so that ``json.dumps``
    is timed as serialization."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()
        self.total: Counter = Counter()
        self.peak: Counter = Counter()
        self._open: Counter = Counter()
        self._undo: list = []

    def wrap(self, probe: str, fn, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[probe] += 1
            if self._open[probe]:
                return fn(*args, **kwargs)
            self._open[probe] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.seconds[probe] += time.perf_counter() - start
                self._open[probe] -= 1
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def _replace(self, module, name: str, new) -> None:
        self._undo.append((module, name, getattr(module, name)))
        setattr(module, name, new)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "plucker" or n.startswith("plucker.")]
        for probe, module, name, observe in PROBES:
            original = getattr(sys.modules["plucker." + module], name)
            wrapper = self.wrap(probe, original, observe)
            for m in modules:
                if vars(m).get(name) is original:
                    self._replace(m, name, wrapper)
        cli = sys.modules["plucker.cli"]
        build = cli.build_parser

        def build_parser():
            parser = build()
            parser.parse_args = self.wrap("cli.parse", parser.parse_args)
            return parser

        self._replace(cli, "build_parser", self.wrap("cli.parse", build_parser))
        self._replace(cli, "json", _JsonShim(self.wrap("cli.serialize", json.dumps)))

    def uninstall(self) -> None:
        while self._undo:
            module, name, original = self._undo.pop()
            setattr(module, name, original)

    def metrics(self, ops: int) -> dict:
        """Per-layer metrics, per traced operation unless the unit says otherwise."""

        def ms(probe):
            return 1000.0 * self.seconds[probe] / ops

        def per_op(probe):
            return self.calls[probe] / ops

        renders = self.calls["render.svg"]
        rows = [
            ("lattice.lattice_points.calls", per_op("lattice.lattice_points"), "count/op"),
            ("lattice.lattice_points.ms", ms("lattice.lattice_points"), "ms/op"),
            ("lattice.contains_translate.ms", ms("lattice.contains_translate"), "ms/op"),
            ("lattice.mixed_volume.calls", per_op("lattice.mixed_volume"), "count/op"),
            ("formulas.dual_fan.calls", per_op("formulas.dual_fan"), "count/op"),
            ("formulas.plucker_report.ms", ms("formulas.plucker_report"), "ms/op"),
            ("formulas.dual_area_closed.ms", ms("formulas.dual_area_closed"), "ms/op"),
            ("assumptions.check_assumption1.ms", ms("assumptions.check_assumption1"), "ms/op"),
            ("assumptions.check_assumption3.ms", ms("assumptions.check_assumption3"), "ms/op"),
            ("assumptions.qd_candidates", per_op("assumptions.qd_candidates"), "count/op"),
            ("assumptions.summand_tests", per_op("assumptions.summand_tests"), "count/op"),
            ("assumptions.five_r.ms", ms("assumptions.five_r"), "ms/op"),
            ("oracle.calls", per_op("oracle.calls"), "count/op"),
            ("oracle.attempts", per_op("oracle.attempts"), "count/op"),
            ("oracle.solutions", self.total["oracle.solutions"] / ops, "count/op"),
            ("oracle.hessian.ms", ms("oracle.hessian"), "ms/op"),
            ("oracle.resultant.ms", ms("oracle.resultant"), "ms/op"),
            ("oracle.resultant.degree", self.peak["oracle.resultant.degree"], "count"),
            ("oracle.resultant.bits", self.peak["oracle.resultant.bits"], "bit"),
            ("oracle.roots.ms", ms("oracle.roots"), "ms/op"),
            # count_torus_solutions outside the resultant and the root finding
            ("oracle.confirm.ms", ms("oracle.attempts") - ms("oracle.resultant") - ms("oracle.roots"), "ms/op"),
            ("oracle.dual_sample.ms", ms("oracle.dual_sample"), "ms/op"),
            ("oracle.implicitize.ms", ms("oracle.implicitize"), "ms/op"),
            ("oracle.implicitize.attempts", per_op("oracle.implicitize.attempts"), "count/op"),
            ("cli.parse.ms", ms("cli.parse"), "ms/op"),
            ("cli.serialize.ms", ms("cli.serialize"), "ms/op"),
            ("cli.output_bytes", self.total["cli.output_bytes"] / ops, "B/op"),
            ("cli.assumption_gate.ms", ms("cli.assumption_gate"), "ms/op"),
            ("render.svg.ms", ms("render.svg"), "ms/op"),
            ("render.svg_bytes", self.total["render.svg_bytes"] / renders if renders else 0, "B/call"),
        ]
        return {name: {"value": float(value), "unit": unit} for name, value, unit in rows}
