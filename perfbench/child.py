"""Runs one workload in this process and prints one JSON line.

Started by ``run.py`` with the library's thread count and BLAS threads
pinned in the environment; not meant to be run by hand.  Set-up time is
measured from the first line of this file, so it includes importing numpy
and ``cliffordspec``, building the workload's inputs and one warm-up call.

It repeats passes of the workload, at least one, and stops before a pass
that would end after ``--seconds`` if it took as long as the median pass
so far.  With ``--trace 1`` every operation of a pass runs twice,
untraced and traced, in alternating order; the worker reports per-layer
numbers from the traced runs and the traced minus the untraced pass time
as the tracing overhead.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from tracer import Tracer, is_boundary, self_times, wrapped_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# cliffordspec layers whose public functions the traced run wraps; scalars
# is left out because its methods run once per matrix entry
TRACED_LAYERS = (
    "charpoly",
    "cliffordrep",
    "invariants",
    "linalg",
    "localizer",
    "matrices",
    "multipoly",
    "parallel",
    "sampler",
    "variance",
)
MAX_FAILURE_LINES = 20


# ---------------------------------------------------------------------------
# statistics


def _rank(p: float, n: int) -> int:
    # rounding first keeps 99.9% of 10000 at rank 9990, not 9991
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[_rank(p, len(sorted_values)) - 1]


# p95 at most: about one graded_index call in twenty (14 ms each) is hit
# by a stall of the shared host, so the p99 of a point_queries pass, the
# slowest 7% of those calls, measured the host; its spread over ten runs
# reached 0.26 to 0.32 of its median
TAIL_PERCENTILES = (95.0, 90.0, 50.0)


def tail_percentile(values) -> tuple:
    """(label, value) for the highest of TAIL_PERCENTILES that has at
    least ten samples beyond it; the maximum when none qualifies."""
    s = sorted(values)
    n = len(s)
    for p in TAIL_PERCENTILES:
        if n - _rank(p, n) >= 10:
            return f"p{p:g}", percentile(s, p)
    return "max", s[-1]


# ---------------------------------------------------------------------------
# passes


def _timed(op, tracer, traced: bool):
    """(seconds, check counters, error) of one call; the check is untimed."""
    if tracer is not None:
        tracer.recording = traced
    t0 = time.perf_counter()
    try:
        result, err = op.call(), None
    except Exception as exc:  # an unexpected exception is a failed operation
        result, err = None, exc
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.recording = False
    counters = {}
    if err is None:
        try:
            counters = op.check(result) or {}
        except Exception as exc:  # a missed reference is a failed operation
            err = exc
    return dt, counters, err


def run_pass(ops, tracer, failures: list) -> dict:
    """Time each operation's call and check its result.  With a tracer,
    each operation runs untraced and traced back to back, in alternating
    order, so that both runs see the same machine state."""
    modes = (False,) if tracer is None else (False, True)
    wall = {False: 0.0, True: 0.0}
    latencies = []
    counters = []
    failed = 0
    for i, op in enumerate(ops):
        for traced in modes if i % 2 == 0 else modes[::-1]:
            dt, count, err = _timed(op, tracer, traced)
            wall[traced] += dt
            if not traced:
                latencies.append(dt)
            if err is not None:
                failed += 1
                failures.append(f"{op.label}: {type(err).__name__}: {err}")
            elif traced or tracer is None:
                counters.append(count)
    return {
        "wall": wall[False],
        "traced_wall": wall[True],
        "latencies": latencies,
        "counters": counters,
        "failed": failed,
        "attempted": len(ops) * len(modes),
    }


def another_pass_fits(elapsed: float, durations: list, seconds: float) -> bool:
    """True when a pass as long as the median pass so far, checks
    included, would end within ``seconds``."""
    return elapsed + statistics.median(durations) <= seconds


def measure(workload, seconds: float, tracer) -> list:
    passes = []
    durations = []
    failures: list = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(workload.ops(len(passes)), tracer, failures))
        now = time.perf_counter()
        durations.append(now - t0)
        if not another_pass_fits(now - start, durations, seconds):
            break
    for line in failures[:MAX_FAILURE_LINES]:
        print(f"FAILED {line}", file=sys.stderr)
    if len(failures) > MAX_FAILURE_LINES:
        print(f"... and {len(failures) - MAX_FAILURE_LINES} more failures", file=sys.stderr)
    return passes


# The speed of this shared host changes within a run: passes run at a
# sustained speed, with spells of up to 40% faster ones when neighbours
# idle.  A run's median over passes moves with the share of fast spells
# in it; its upper decile follows the sustained speed (over ten 40 s
# point_queries runs: spread 0.04 against 0.20 for the median).
PASS_PERCENTILE = 90.0


def end_to_end(passes, per_operation: bool) -> dict:
    """Untraced metrics.  A request is one operation when the workload
    serves independent calls, else one pass of its task list.  Each
    timing is computed per pass, then taken at PASS_PERCENTILE over the
    passes."""
    walls, p50s, tails, labels = [], [], [], set()
    for p in passes:
        latencies = sorted(p["latencies"] if per_operation else [p["wall"]])
        label, tail = tail_percentile(latencies)
        walls.append(p["wall"])
        p50s.append(percentile(latencies, 50.0))
        tails.append(tail)
        labels.add(label)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "metrics": {
            "wall_s": percentile(sorted(walls), PASS_PERCENTILE),
            "ok_frac": 1.0 - failed / attempted,
            "latency_p50_us": percentile(sorted(p50s), PASS_PERCENTILE) * 1e6,
            "latency_tail_us": percentile(sorted(tails), PASS_PERCENTILE) * 1e6,
        },
        "notes": {
            "passes": len(passes),
            "requests_per_pass": len(passes[0]["latencies"]) if per_operation else 1,
            "latency_tail_percentile": "/".join(sorted(labels)),
        },
    }


# ---------------------------------------------------------------------------
# per-layer numbers from spans


def _charpoly_kind(span):
    """Kind ("exact" or "float") of the tuple of the nearest charpoly
    span above this one, or None when there is none."""
    p = span.parent
    while p is not None:
        if p.layer == "charpoly" and p.info is not None:
            return p.info["kind"]
        p = p.parent
    return None


def _median_us(spans) -> float:
    return statistics.median(s.duration for s in spans) * 1e6 if spans else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans, passes: int, counters: list) -> dict:
    """Per-pass layer totals, rates and ratios; ``counters`` are the check
    counters of the traced passes."""
    by_name = defaultdict(list)
    incl = defaultdict(float)
    calls = defaultdict(int)
    own = defaultdict(float)
    for span, st in zip(spans, self_times(spans)):
        by_name[span.name].append(span)
        own[span.layer] += st
        if is_boundary(span):
            incl[span.layer] += span.duration
            calls[span.layer] += 1

    def total(name):
        return sum(s.duration for s in by_name[name])

    def summed(key):
        return sum(c.get(key, 0) for c in counters)

    chunk_maps = by_name["parallel.ordered_chunk_map"]
    det_maps = {"exact": [], "float": []}
    for s in chunk_maps:
        kind = _charpoly_kind(s)
        if kind is not None:
            det_maps[kind].append(s)
    dets = {k: sum(s.info["items"] for s in v) for k, v in det_maps.items()}
    det_s = {k: sum(s.duration for s in v) for k, v in det_maps.items()}
    samples = by_name["sampler.sample"]
    sample_s = {
        ind: sum(s.duration for s in samples if s.info["indicator"] == ind)
        for ind in ("det-sign", "sigma-min", "pfaffian-sign")
    }
    near = [c["near_surface_frac"] for c in counters if "near_surface_frac" in c]
    queries = sum(1 for c in counters if "singular" in c)
    per = 1.0 / passes
    return {
        "charpoly.s": incl["charpoly"] * per,
        "charpoly.self_s": own["charpoly"] * per,
        "charpoly.dets_per_s": _ratio(dets["exact"], det_s["exact"]),
        "charpoly.terms_per_det": _ratio(summed("terms"), dets["exact"]),
        "charpoly.float_dets_per_s": _ratio(dets["float"], det_s["float"]),
        "charpoly.float_max_rel_err": max((c["rel_err"] for c in counters if "rel_err" in c), default=0.0),
        "parallel.s": incl["parallel"] * per,
        "parallel.items": sum(s.info["items"] for s in chunk_maps) * per,
        "parallel.chunks": sum(s.info["chunks"] for s in chunk_maps) * per,
        "multipoly.evaluate_calls": len(by_name["multipoly.MultiPoly.evaluate"]) * per,
        "multipoly.evaluate_s": total("multipoly.MultiPoly.evaluate") * per,
        "multipoly.to_text_s": total("multipoly.to_text") * per,
        "sampler.sample_det_sign_s": sample_s["det-sign"] * per,
        "sampler.sample_sigma_min_s": sample_s["sigma-min"] * per,
        "sampler.sample_pfaffian_s": sample_s["pfaffian-sign"] * per,
        "sampler.nodes_per_s": _ratio(sum(s.info["nodes"] for s in samples), sum(sample_s.values())),
        "sampler.extract_s": total("sampler.extract_isosurface") * per,
        "sampler.topology_s": total("sampler.mesh_topology") * per,
        "sampler.export_s": total("sampler.export_mesh_obj") * per,
        "sampler.triangles": summed("triangles") * per,
        "sampler.obj_bytes": summed("obj_bytes") * per,
        "sampler.near_surface_frac": statistics.median(near) if near else 0.0,
        # measured outside the traced passes, by SpectrumMesh.extras
        "sampler.pfaffian_1t_s": 0.0,
        "sampler.pfaffian_2t_over_1t": 0.0,
        "invariants.index_us": _median_us(by_name["invariants.index"]),
        "invariants.archetypal_sign_us": _median_us(by_name["invariants.archetypal_sign"]),
        "invariants.graded_index_us": _median_us(by_name["invariants.graded_index"]),
        "invariants.validate_symmetry_s": total("invariants.validate_symmetry") * per,
        "variance.certificate_us": _median_us(by_name["variance.certificate"]),
        "localizer.build_calls": calls["localizer"] * per,
        "localizer.build_s": incl["localizer"] * per,
        "linalg.calls": calls["linalg"] * per,
        "linalg.s": incl["linalg"] * per,
        "matrices.as_float_calls": len(by_name["matrices.HermitianTuple.as_float"]) * per,
        "point_queries.singular_frac": _ratio(summed("singular"), queries),
    }


def _chunk_map_info(args, kwargs):
    chunks = kwargs["chunks"] if "chunks" in kwargs else args[1]
    return {"items": sum(len(c) for c in chunks), "chunks": len(chunks)}


def _sample_info(args, kwargs):
    spec = kwargs["spec"] if "spec" in kwargs else args[1]
    indicator = kwargs["indicator"] if "indicator" in kwargs else args[2]
    return {"indicator": indicator, "nodes": math.prod(a.count for a in spec.axes)}


def _tuple_kind(args, kwargs):
    tuple_ = kwargs["tuple_"] if "tuple_" in kwargs else args[0]
    return {"kind": tuple_.kind}


TRACE_HOOKS = {
    "charpoly.char_poly": _tuple_kind,
    "charpoly.reduced_char_poly": _tuple_kind,
    "parallel.ordered_chunk_map": _chunk_map_info,
    "sampler.sample": _sample_info,
}


# ---------------------------------------------------------------------------
# machine facts


def _blas_threads() -> str:
    """Thread count reported by the OpenBLAS library numpy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return "unknown"
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts(cs, seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "lib_threads": cs.parallel.worker_count(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", required=True, help="directory holding the cliffordspec package")
    ap.add_argument("--workdir", required=True, help="scratch directory for exported files")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import cliffordspec as cs

    if Path(cs.__file__).resolve().parent != src / "cliffordspec":
        raise RuntimeError(f"imported cliffordspec from {cs.__file__}, not from {src}")
    workload = WORKLOADS[args.workload](cs, args.seed, args.workdir)
    workload.warm_up()
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    out = {"setup_s": setup_s, "machine": machine_facts(cs, args.seed)}
    if args.trace:
        with Tracer(cs, TRACED_LAYERS, TRACE_HOOKS) as tracer:
            passes = measure(workload, args.seconds, tracer)
        leftover = wrapped_names(cs)
        if leftover:
            raise RuntimeError(f"wrappers left installed: {leftover}")
        metrics = layer_metrics(tracer.spans, len(passes), [c for p in passes for c in p["counters"]])
        extra = statistics.median(p["traced_wall"] - p["wall"] for p in passes)
        metrics["trace.overhead_s"] = extra
        metrics["trace.overhead_frac"] = extra / statistics.median(p["wall"] for p in passes)
        metrics.update(getattr(workload, "extras", dict)())
        untraced = end_to_end(passes, workload.per_operation)
        out["metrics"] = metrics
        out["notes"] = dict(untraced["notes"], spans=len(tracer.spans))
        out["untraced"] = untraced["metrics"]
    else:
        passes = measure(workload, args.seconds, None)
        summary = end_to_end(passes, workload.per_operation)
        out["metrics"] = summary["metrics"]
        out["notes"] = summary["notes"]
    out["attempted"] = sum(p["attempted"] for p in passes)
    out["failed"] = sum(p["failed"] for p in passes)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
