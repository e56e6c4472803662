"""otfs-sync benchmark: one workload in one process, checked and timed.

Run from the root of a source checkout:

    python3 bench/run.py --workload toy-train --seed 1 --seconds 25 --trace 0

The program is imported from ``src/`` of the checkout.  Standard output
ends with two JSON lines: a report (environment, sizes, op counts, computed
operation and byte counts, every end-to-end metric with its unit including
``failed_op_ratio``), then the result object with exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics, measured untraced; with
``--trace 1`` they are the per-layer metrics of a traced run.

Exit codes: 0 when a result was printed (``correct`` says whether every op
and check passed), 2 when the program sources are missing, 1 on a crash.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def source_digest() -> str:
    """sha256 over the package sources, which identifies the code measured
    even where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted((SRC / "otfs_sync").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (AttributeError, KeyError, TypeError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "blas": blas,
        "threads_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("toy-train", "default-synth", "default-eval"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "otfs_sync" / "__init__.py").is_file():
        print(f"bench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    t0 = time.perf_counter()
    try:
        report, metrics = workloads.execute(
            args.workload, args.seed, args.seconds, bool(args.trace), workloads.FULL,
            workdir, str(SRC))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other run is using it
        except OSError:
            pass
    report["environment"] = environment()
    report["wall_s"] = time.perf_counter() - t0
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
