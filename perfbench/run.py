"""Run one dccsim benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sparse-lowp --seed 0 --seconds 15 --trace 0

Run from the repository root. The interpreter is single-threaded: BLAS and
OpenMP thread variables default to 1 and are capped at the processor count.
With --trace 0 the last line of output is a JSON object holding every
end-to-end metric of BENCHMARK.json; with --trace 1 it holds every per-layer
metric, taken from traced passes over the same trials, and the spans are
written to perfbench/out/. Exits non-zero without a result when the dccsim
sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def cap_threads(env: dict, nproc: int) -> dict:
    """Thread variables default to 1 and never exceed nproc."""
    for var in THREAD_VARS:
        try:
            wanted = int(env.get(var, "1"))
        except ValueError:
            wanted = 1
        env[var] = str(max(1, min(wanted, nproc)))
    return {var: env[var] for var in THREAD_VARS}


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():  # a plain checkout; do not report an enclosing repository
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dccsim").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dccsim").is_dir():
        print(f"dccsim sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 3

    nproc = os.cpu_count() or 1
    threads = cap_threads(os.environ, nproc)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    import bench
    import hostspeed

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "source_sha256": source_sha256(),
        "python": platform.python_version(), "numpy": numpy.__version__, "nproc": nproc,
        "threads_env": threads, "machine": platform.machine(),
    }
    print("run " + json.dumps(record, sort_keys=True), flush=True)

    workload = bench.WORKLOADS[args.workload]
    setup = None
    if not args.trace:
        setup = bench.setup_seconds(workload, bench.SETUP_SAMPLES, dict(os.environ))
    out = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = dict(out["metrics"])
    if args.trace:
        wanted = spec["per_layer"]
        # A layer the workload never reaches has no spans and no counts.
        for m in wanted:
            metrics.setdefault(m["name"], (0.0, m["unit"]))
        spans = bench.OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        bench.write_spans(spans, record, out["passes"])
        print(f"spans written to {spans.relative_to(ROOT)}")
    else:
        wanted = spec["end_to_end"]
        metrics["setup_s"] = (statistics.median(hostspeed.scale(wall, h) for wall, h in setup), "s")
        print(f"peak resident memory: {bench.peak_rss_mb():.2f} MB")
        print("setup_s samples, wall s / reference ms: "
              + ", ".join(f"{wall:.4f}/{h * 1e3:.2f}" for wall, h in setup))

    for line in out.get("notes", []):
        print(line)
    for problem in out["problems"]:
        print(f"problem: {problem}")
    tail = bench.highest_percentile(out["samples"])
    print(f"samples: {out['samples']} operations (highest percentile with 10 beyond: "
          f"{'none' if tail is None else f'p{tail}'}); attempted {out['attempted']}, "
          f"failed {out['failed']} (failed_frac {out['failed'] / out['attempted']:.4f})")
    if out["digest"]:
        print(f"digest of the first {bench.DIGEST_TRIALS} trials: {out['digest']}")
    result = {}
    for m in wanted:
        value, unit = metrics[m["name"]]
        if unit != m["unit"]:
            raise AssertionError(f"{m['name']} measured in {unit}, declared in {m['unit']}")
        result[m["name"]] = {"value": value, "unit": unit}
        print(f"{m['name']:<36} {value:>14.6g} {unit}")
    print(json.dumps({"correct": out["correct"], "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
