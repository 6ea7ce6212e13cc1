"""The repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload charpoly --seed 1 --seconds 40 --trace 0

Each workload runs in a fresh worker process (``child.py``) with
``CLIFFORDSPEC_THREADS=2`` and BLAS pinned to one thread.  One client
drives it in a closed loop: each call starts when the previous one has
returned.  Before the worker, the same set-up is made in
``SETUP_PROBES`` short-lived processes; ``setup_s`` is the median of all of
them.  With ``--trace 0`` the worker reports the end-to-end metrics, with
``--trace 1`` the per-layer ones (see ``BENCHMARK.json`` and
``perfbench/README.md``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it name every metric with its unit and record the machine.  The exit code
is 0 when the run completed (correct or not) and 2 when it could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 4
TIME_LIMIT_S = 170.0
CHILD_ENV = {
    "CLIFFORDSPEC_THREADS": "2",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    pass


def run_child(root: Path, argv: list, deadline: float) -> dict:
    """Run child.py to completion (killed at the deadline) and parse the
    JSON on its last line of output."""
    env = dict(os.environ, **CHILD_ENV)
    cmd = [sys.executable, str(HERE / "child.py"), "--src", str(root / "src"), *argv]
    try:
        proc = subprocess.run(
            cmd,
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the time limit: {' '.join(argv)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}: {' '.join(argv)}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if not (root / "src" / "cliffordspec" / "__init__.py").is_file():
        raise BenchError(f"no src/cliffordspec under {root}: run from the repository root")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    scratch = root / ".perfbench_tmp"
    workdir = scratch / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", str(workdir)]
    try:
        setups = [
            run_child(root, [*common, "--seconds", "0", "--setup-only"], deadline)["setup_s"]
            for _ in range(SETUP_PROBES)
        ]
        out = run_child(
            root,
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
            deadline,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if scratch.is_dir() and not any(scratch.iterdir()):
            scratch.rmdir()

    values = dict(out["metrics"])
    setups.append(out["setup_s"])
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = out["peak_rss_mb"]
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"worker did not report {missing}")

    facts = out["machine"]
    notes = out["notes"]
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v!r}" if isinstance(v, str) else f"{k}={v}" for k, v in facts.items()))
    print("samples: " + " ".join(f"{k}={v}" for k, v in notes.items()) + f" setup_runs={len(setups)}")
    if args.trace:
        print("untraced: " + " ".join(f"{k}={v:.6g}" for k, v in out["untraced"].items()))
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    attempted, failed = out["attempted"], out["failed"]
    print(f"operations: attempted={attempted} failed={failed}")
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
