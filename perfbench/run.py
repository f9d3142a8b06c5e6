"""Benchmark entry point: graph file to served top-k, timed layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Two child processes do the work, one
after the other, with BLAS/OpenMP pinned to one thread, the temp
directory (and so the compiled walk-kernel cache) inside
``perfbench/_work`` and ``src`` on the import path:

1. ``inputs.py`` writes the workload's inputs for the seed, builds the
   kernel cache and records an environment fingerprint;
2. ``workloads.py`` runs the workload on those inputs and writes its
   result.

Keeping generation out of the measured process keeps its memory and its
compiler children out of the measured peak RSS and CPU time. The last
line of standard output is the result as one JSON object. Any failure
exits non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("e2e-deepwalk", "walk-node2vec", "walk-sharded", "serve-zipf")
#: per-step wall-clock limits; the whole run must end within 180 s
GENERATE_TIMEOUT_S = 60
MEASURE_TIMEOUT_S = 110


def _env(work: Path) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _step(cmd, env, timeout: float) -> None:
    """Run one child in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"{cmd[1]} exceeded {timeout} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    # reap anything the child left in its group (shard workers, servers)
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    if code != 0:
        raise SystemExit(f"{cmd[1]} exited with status {code}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    work = BENCH_DIR / "_work"
    inputs = work / args.workload
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    env = _env(work)
    py = sys.executable
    started = time.perf_counter()
    _step([py, str(BENCH_DIR / "inputs.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(inputs)], env, GENERATE_TIMEOUT_S)
    result_path = inputs / "result.json"
    _step([py, str(BENCH_DIR / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--inputs", str(inputs), "--result", str(result_path)], env, MEASURE_TIMEOUT_S)
    result = json.loads(result_path.read_text())
    fingerprint = json.loads((inputs / "fingerprint.json").read_text())
    print(f"fingerprint: {json.dumps(fingerprint)}", file=sys.stderr)
    print(f"run took {time.perf_counter() - started:.1f} s", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
