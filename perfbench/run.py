"""Benchmark of the serve, ingest and train paths of ssmcompose.

    python3 perfbench/run.py --workload serve_big_store --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the package from src/.  It
prints the environment, one line per metric with its unit and sample count,
and as the last line one JSON object with the keys correct, attempted, failed
and metrics.  --trace 0 reports the end-to-end metrics; --trace 1 runs the
workload untraced and then traced, and reports the per-layer metrics.
"""

from __future__ import annotations

import os
import sys

sys.dont_write_bytecode = True
# One process, no threads of the benchmark's own: BLAS runs single-threaded
# unless the caller says otherwise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import ctypes
import glob
import hashlib
import json
import platform
import shutil
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

#: The names the two serve and the two train operation kinds go by.
ALIASES = {
    "serve": {
        "ops_per_s": "requests_per_s",
        "op_a_per_s": "picaso_r_requests_per_s",
        "op_a_p50_ms": "picaso_r_p50_ms",
        "op_a_p95_ms": "picaso_r_p95_ms",
        "op_b_per_s": "picaso_s_requests_per_s",
        "op_b_p50_ms": "picaso_s_p50_ms",
        "op_b_p95_ms": "picaso_s_p95_ms",
    },
    "train": {
        "ops_per_s": "steps_per_s",
        "op_a_per_s": "pretrain_steps_per_s",
        "op_a_p50_ms": "pretrain_step_p50_ms",
        "op_a_p95_ms": "pretrain_step_p95_ms",
        "op_b_per_s": "finetune_steps_per_s",
        "op_b_p50_ms": "finetune_step_p50_ms",
        "op_b_p95_ms": "finetune_step_p95_ms",
    },
}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting a process."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """SHA-256 over the package sources, which identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "ssmcompose", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def blas_threads(np) -> int:
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for lib in glob.glob(libs):
        dll = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def environment(np, workload: str, seed: int, trace: int) -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": blas_threads(np),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ssmcompose", "__init__.py")):
        print(f"perfbench: no ssmcompose package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy as np
    import ssmcompose
    import workloads

    if not os.path.abspath(ssmcompose.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported ssmcompose from {ssmcompose.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]

    env = environment(np, wl.name, args.seed, args.trace)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if args.trace:
            os.makedirs(OUT_DIR, exist_ok=True)
            trace_path = os.path.join(OUT_DIR, f"spans-{wl.name}-seed{args.seed}.json")
            result = workloads.run_traced(wl, args.seed, args.seconds, workdir, trace_path)
        else:
            result = workloads.run_untraced(wl, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("env " + json.dumps(env, sort_keys=True))
    aliases = ALIASES[wl.path]
    shown = [(name, m, "") for name, m in result.metrics.items()]
    shown += [(name, m, " (printed, not reported)") for name, m in result.printed.items()]
    for name, (value, unit, n), remark in shown:
        alias = f"  [{aliases[name]}]" if name in aliases else ""
        print(f"{name} = {value:.6g} {unit} (n={n}){alias}{remark}")
    if "ok_share" in result.metrics:
        print(f"failed_share = {result.failed / result.attempted:.6g} failed ops / ops attempted (n={result.attempted})")
    for note in result.notes:
        print(note)
    print(
        json.dumps(
            {
                "correct": result.failed == 0,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in result.metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
