"""finitype benchmark: one seeded workload per run, checked op by op.

    python3 perfbench/run.py --workload knot_invariants --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from ./src.  Load
is a closed loop: one client in one process issues the next op when the
previous one returns.  A run first sets up (imports finitype, generates
every batch of inputs from the seed and parses each input once to check
the generator against the parser) SETUP_REPEATS times and keeps the
last; then it runs batches until --seconds have passed.  Every op's value
is checked against an independent oracle (checks.py).

--trace 0 prints the end-to-end metrics.  --trace 1 runs the first
TRACE_BATCHES batches with every library layer wrapped (tracing.py), then
starts an untraced run of the same seed as a child process, requires the
two to compute identical values, and prints the per-layer metrics with
the tracing overhead.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from tracing import Tracer
from workloads import WORKLOADS, check_op, make_batches, run_op

ROOT = Path(__file__).resolve().parent.parent
MAX_BATCHES = 64
SETUP_REPEATS = 9
TRACE_BATCHES = {"knot_invariants": 6, "difference_sums": 6, "chord_dims": 3}
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

# span name -> whether its call count is reported
SPAN_LAYERS = {
    "diagram.parse_pd": True,
    "diagram.canonical_key": True,
    "diagram.FormalSum": False,
    "invariants.kauffman_bracket": False,
    "invariants.jones": True,
    "invariants.conway": True,
    "invariants.evaluate_on_sum": True,
    "exact_math.SparseMatrix.rank": False,
    "vassiliev.difference_sum": False,
    "vassiliev.resolve_all": False,
    "goussarov.DetourFamily": False,
    "goussarov.goussarov_difference": False,
    "goussarov.encode": False,
    "chord_algebra.enumerate_diagrams": False,
    "chord_algebra.generate_4t": False,
    "chord_algebra.generate_fi": False,
    "chord_algebra.dim_a": False,
}
COUNTS = (
    "diagram.Diagram.builds",
    "diagram.FormalSum.terms_in",
    "diagram.switch_crossing.calls",
    "invariants.kauffman_bracket.states",
    "invariants.evaluate_on_sum.terms",
    "exact_math.LaurentPoly.mul.calls",
    "exact_math.LaurentPoly.pow.calls",
    "exact_math.SparseMatrix.rank.rows",
    "exact_math.SparseMatrix.rank.nnz",
    "goussarov.DetourFamily.resolutions",
    "chord_algebra.enumerate_diagrams.diagrams",
    "chord_algebra.generate_4t.rows",
    "chord_algebra.ChordDiagram.from_word.calls",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""

    def unit(name: str) -> str:
        if name.endswith("_s"):
            return "s"
        return "ratio" if name.endswith("_ratio") else "count"

    return {name: unit(name) for name in per_layer_metrics(Tracer(), 0.0, 0.0)}


class _NoTrace:
    def span(self, name):
        return nullcontext()


def import_finitype():
    """A fresh import of finitype from ./src (earlier imports are dropped)."""
    if not (ROOT / "src" / "finitype" / "__init__.py").is_file():
        raise SystemExit(f"no finitype sources under {ROOT / 'src'}")
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    for name in [m for m in sys.modules if m == "finitype" or m.startswith("finitype.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return importlib.import_module("finitype")


def validate_inputs(ft, batches) -> None:
    """Parse each generated PD text once; the parser must see what the generator built."""
    seen = set()
    for ops in batches:
        for op in ops:
            b = op.braid
            if b is None or b.pd in seen:
                continue
            seen.add(b.pd)
            d = ft.parse_pd(b.pd)
            if d.n_components != b.n_components or tuple(x.sign for x in d.crossings) != b.signs:
                raise SystemExit(f"generated input does not parse as built: {b}")


def setup(workload: str, seed: int, repeats: int):
    """Set up `repeats` times; return the last set-up and every set-up time."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        ft = import_finitype()
        batches = make_batches(workload, seed, MAX_BATCHES)
        validate_inputs(ft, batches)
        times.append(perf_counter() - t0)
    return ft, batches, times


def run_batch(ft, ops, tracer) -> dict:
    """Run one batch in a closed loop; check each value after timing the op."""
    op_ms, failed, digest = [], 0, hashlib.sha256()
    t0 = perf_counter()
    with tracer.span("bench.batch"):
        for op in ops:
            t_op = perf_counter()
            try:
                with tracer.span("bench.op"):
                    value = run_op(ft, op)
            except Exception:  # an op that raises is a failed op; keep running
                op_ms.append((perf_counter() - t_op) * 1e3)
                failed += 1
                digest.update(b"raised")
                print(f"op {op.kind} raised:\n{traceback.format_exc()}", file=sys.stderr)
                continue
            op_ms.append((perf_counter() - t_op) * 1e3)
            with tracer.span("bench.check"):
                ok = check_op(op, value)
                digest.update(repr(value).encode())
            if not ok:
                failed += 1
                print(f"op {op.kind} args={op.args} wrong value {value!r} on {op.braid}", file=sys.stderr)
    return {
        "wall": perf_counter() - t0,
        "op_ms": op_ms,
        "failed": failed,
        "digest": digest.hexdigest()[:16],
    }


def run_batches(ft, batches, *, seconds: float | None = None, count: int | None = None, tracer=None):
    """Batches in order until `seconds` have passed (at least one) or `count` ran."""
    tracer = tracer or _NoTrace()
    out = []
    start = perf_counter()
    for ops in batches:
        if count is not None and len(out) >= count:
            break
        if seconds is not None and out and perf_counter() - start >= seconds:
            break
        out.append(run_batch(ft, ops, tracer))
    return out


def end_to_end_metrics(results, setup_times) -> dict[str, float]:
    op_ms = [t for r in results for t in r["op_ms"]]
    return {
        "wall_s": statistics.median(r["wall"] for r in results),
        "op_p50_ms": statistics.median(op_ms),
        "op_p90_ms": statistics.quantiles(op_ms, n=10)[8],
        "setup_s": statistics.median(setup_times),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float) -> dict[str, float]:
    self_s = tracer.self_times()
    calls = tracer.calls()
    counts = tracer.counts
    out: dict[str, float] = {}
    for span, with_calls in SPAN_LAYERS.items():
        if with_calls:
            out[f"{span}.calls"] = calls[span]
        out[f"{span}.self_s"] = self_s.get(span, 0.0)
    for name in COUNTS:
        out[name] = counts[name]
    keys = calls["diagram.canonical_key"]
    out["diagram.canonical_key.distinct_ratio"] = len(tracer.keys) / keys if keys else 0.0
    out["goussarov.DetourFamily.builds"] = calls["goussarov.DetourFamily"]
    most = counts["vassiliev.difference_sum.terms_max"]
    out["vassiliev.difference_sum.merge_ratio"] = (
        counts["vassiliev.difference_sum.terms_out"] / most if most else 0.0
    )
    out["bench.self_s"] = self_s.get("bench.batch", 0.0) + self_s.get("bench.check", 0.0)
    out["trace.unattributed_s"] = self_s.get("bench.op", 0.0)
    out["trace.overhead_s"] = traced_wall - untraced_wall
    return out


def _untraced_child(workload: str, seed: int, seconds: float) -> dict:
    """Run this benchmark untraced in a fresh interpreter; its batch records."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"untraced comparison run failed with exit code {proc.returncode}")
    for line in proc.stdout.splitlines():
        if line.startswith("batches "):
            return json.loads(line[len("batches "):])
    raise SystemExit("untraced comparison run printed no batch records")


def traced_run(workload: str, seed: int, seconds: float, batches_to_trace: int):
    """Per-layer metrics from a traced prefix of batches, checked against an untraced run."""
    ft, batches, _ = setup(workload, seed, 1)
    tracer = Tracer()
    tracer.install(ft)
    try:
        results = run_batches(ft, batches, count=batches_to_trace, tracer=tracer)
    finally:
        tracer.remove()
    child = _untraced_child(workload, seed, seconds)
    common = min(len(results), len(child["walls"]))
    same = [r["digest"] for r in results[:common]] == child["digests"][:common]
    if not same:
        print("traced and untraced runs computed different values", file=sys.stderr)
    traced_wall = sum(r["wall"] for r in results[:common])
    metrics = per_layer_metrics(tracer, traced_wall, sum(child["walls"][:common]))
    accounted = sum(tracer.self_times().values())
    print(f"traced batches: {len(results)}; compared with the untraced run on {common}")
    print(f"span self times sum to {accounted:.4f} s over a traced wall of "
          f"{sum(r['wall'] for r in results):.4f} s")
    return results, metrics, same


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.trace:
        results, metrics, correct = traced_run(
            args.workload, args.seed, args.seconds, TRACE_BATCHES[args.workload]
        )
        units = per_layer_units()
    else:
        ft, batches, setup_times = setup(args.workload, args.seed, SETUP_REPEATS)
        results = run_batches(ft, batches, seconds=args.seconds)
        metrics = end_to_end_metrics(results, setup_times)
        units = END_TO_END
        correct = True
        print("batches " + json.dumps({
            "digests": [r["digest"] for r in results],
            "walls": [r["wall"] for r in results],
        }))

    attempted = sum(len(r["op_ms"]) for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"workload={args.workload} seed={args.seed} batches={len(results)} ops={attempted} failed={failed}")
    if not args.trace:
        beyond = sum(t > metrics["op_p90_ms"] for r in results for t in r["op_ms"])
        print(f"op latency over {attempted} ops; {beyond} lie beyond op_p90_ms")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
