"""Tests of the benchmark itself: inputs, oracles, tracing and output.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import random
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import run
from gen import closure, random_closure
from tracing import Tracer, _finitype_modules
from workloads import WORKLOADS, check_op, make_batches, run_op

HERE = Path(__file__).resolve().parent
ft = run.import_finitype()


# -- generator ----------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_deterministic_and_seeded(workload):
    first = make_batches(workload, 11, 3)
    assert first == make_batches(workload, 11, 3)
    assert first != make_batches(workload, 12, 3)
    assert first[0] != first[1]


def _faces(pd: str) -> int:
    quads = [tuple(map(int, q)) for q in re.findall(r"X\[(\d+),(\d+),(\d+),(\d+)\]", pd)]
    ends: dict[int, list[tuple[int, int]]] = {}
    for ci, q in enumerate(quads):
        for si, arc in enumerate(q):
            ends.setdefault(arc, []).append((ci, si))
    seen, faces = set(), 0
    for start in ((ci, si) for ci in range(len(quads)) for si in range(4)):
        if start in seen:
            continue
        faces += 1
        cur = start
        while cur not in seen:
            seen.add(cur)
            (other,) = [e for e in ends[quads[cur[0]][cur[1]]] if e != cur]
            cur = (other[0], (other[1] + 1) % 4)
    return faces


@pytest.mark.parametrize("components", [1, 2, 3])
def test_closures_are_planar_and_parse_as_built(components):
    rng = random.Random(components)
    for c in range(5, 14):
        b = random_closure(rng, c, components)
        d = ft.parse_pd(b.pd)
        assert _faces(b.pd) == c + 2  # Euler: a connected planar 4-valent graph
        assert d.n_components == b.n_components == components
        assert tuple(x.sign for x in d.crossings) == b.signs


def test_closures_match_bundled_knots():
    table = ft.bundled_table()
    trefoil = ft.jones(ft.parse_pd(closure(2, (1, 1, 1)).pd))
    assert trefoil.substitute_inverse() == ft.jones(table["3_1"])
    figure_eight = ft.jones(ft.parse_pd(closure(3, (1, -2, 1, -2)).pd))
    assert figure_eight == ft.jones(table["4_1"])


# -- oracles ------------------------------------------------------------


def _corrupt(value):
    if isinstance(value, ft.LaurentPoly):
        return value + ft.LaurentPoly.monomial(value.var, 1)
    if isinstance(value, Fraction):
        return value + 1
    if isinstance(value, ft.Theorem1Result):
        return dataclasses.replace(value, rhs=_corrupt(value.rhs))
    if isinstance(value, ft.WeightSpaceReport):
        return dataclasses.replace(value, dim=value.dim + 1)
    raise TypeError(type(value))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_each_oracle_accepts_the_value_and_rejects_a_corruption(workload):
    seen = set()
    for op in make_batches(workload, 5, 1)[0]:
        shape = (op.kind, op.braid.n_components) if op.braid else op.args[:2]
        if shape in seen or shape[0] == 6:  # one op per shape; dim_a(6) is slow
            continue
        seen.add(shape)
        value = run_op(ft, op)
        assert check_op(op, value), op
        assert not check_op(op, _corrupt(value)), op


def test_theorem1_oracle_rejects_a_wrong_lhs_even_if_rhs_agrees():
    op = next(o for o in make_batches("difference_sums", 5, 1)[0] if o.kind == "theorem1_c2")
    value = run_op(ft, op)
    wrong = _corrupt(value.lhs)
    assert not check_op(op, ft.Theorem1Result(wrong, wrong))


def test_polyak_viro_c2_on_bundled_examples():
    assert checks.polyak_viro_c2(closure(2, (1, 1, 1))) == 1
    assert checks.polyak_viro_c2(closure(3, (1, -2, 1, -2))) == -1


# -- tracing ------------------------------------------------------------


def _bindings():
    """Every attribute of every finitype module and class, plus the registry."""
    out = {}
    for mod in _finitype_modules():
        for attr, val in vars(mod).items():
            out[(mod.__name__, attr)] = val
            if isinstance(val, type) and val.__module__ == mod.__name__:
                for name, member in vars(val).items():
                    out[(mod.__name__, attr, name)] = member
    out.update({("registry", k): v for k, v in ft.invariants._REGISTRY.items()})
    return out


def _traced(workload):
    ops = make_batches(workload, 3, 1)
    tracer = Tracer()
    before = _bindings()
    tracer.install(ft)
    try:
        assert ft.parse_pd is not before[("finitype", "parse_pd")]
        assert ft.vassiliev.evaluate_on_sum is not before[("finitype.vassiliev", "evaluate_on_sum")]
        assert ft.goussarov.evaluate_on_sum is ft.vassiliev.evaluate_on_sum
        assert ft.get_invariant("jones").fn is ft.invariants.jones
        (traced,) = run.run_batches(ft, ops, count=1, tracer=tracer)
    finally:
        tracer.remove()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before), "a wrapper was left in place"
    (untraced,) = run.run_batches(ft, ops, count=1)
    return tracer, traced, untraced


@pytest.fixture(scope="module")
def traced_runs():
    return {w: _traced(w) for w in sorted(WORKLOADS)}


def _home(metric: str) -> str:
    """The workload on which a per-layer metric must be non-zero."""
    if metric.startswith(("chord_algebra.", "exact_math.SparseMatrix")):
        return "chord_dims"
    if metric.startswith(("invariants.kauffman_bracket", "invariants.jones", "exact_math.LaurentPoly")):
        return "knot_invariants"
    return "difference_sums"


def test_every_declared_metric_fires_on_its_workload(traced_runs):
    metrics = {
        w: run.per_layer_metrics(tracer, traced["wall"], untraced["wall"])
        for w, (tracer, traced, untraced) in traced_runs.items()
    }
    for name in run.per_layer_units():
        if name != "trace.overhead_s":
            assert metrics[_home(name)][name] > 0, name
    # the layer isolation the workloads were chosen for
    assert metrics["knot_invariants"]["diagram.canonical_key.calls"] == 0
    assert metrics["chord_dims"]["diagram.parse_pd.calls"] == 0
    assert metrics["chord_dims"]["invariants.kauffman_bracket.states"] == 0
    assert metrics["difference_sums"]["exact_math.SparseMatrix.rank.rows"] == 0


def test_traced_values_equal_untraced_and_spans_account_for_wall(traced_runs):
    for tracer, traced, untraced in traced_runs.values():
        assert traced["failed"] == untraced["failed"] == 0
        assert traced["digest"] == untraced["digest"]
        assert sum(tracer.self_times().values()) == pytest.approx(traced["wall"], rel=1e-3)


# -- command line -------------------------------------------------------


def _bench(*args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_declares_what_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_untraced_run_prints_every_end_to_end_metric():
    proc = _bench("--workload", "chord_dims", "--seed", "4", "--seconds", "0", "--trace", "0",
                  cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 14 and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_without_library_sources_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "knot_invariants", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
