"""Input generation for the benchmark: everything the program reads.

Run as a script, it writes one workload's inputs for one seed into a
directory, builds the compiled walk-kernel cache for the current kernel
source, and records an environment fingerprint::

    python3 perfbench/inputs.py --workload e2e-deepwalk --seed 1 --out DIR

The measured process then reads only these files. The same seed always
gives byte-identical files. The functions that derive the serve
workload's key stream and scripted upserts also live here, because the
server process, the load generator and the correctness check must all
replay the same sequences.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

#: workload name -> generated inputs; sizes are fixed by the benchmark
GRAPHS = {
    # twitter stand-in at scale 0.2 = R-MAT scale 13 = 8,192 nodes
    "e2e-deepwalk": ("twitter", 0.2),
    # web-uk stand-in at scale 0.5 = R-MAT scale 15 = 32,768 nodes
    "walk-node2vec": ("web-uk", 0.5),
    "walk-sharded": ("web-uk", 0.5),
}
HOLDOUT_FRACTION = 0.1
SERVE_ROWS = 50_000
SERVE_DIM = 64
SERVE_CLUSTERS = 256
ZIPF_EXPONENT = 1.2
UPSERT_ROWS = 256
#: answered requests between scripted upserts: about 0.5 s at the ~800
#: requests/s measured on a 2-core Xeon VM
UPSERT_EVERY = 400
TOY_SCALE = 0.01


def seed_rng(*words: int) -> np.random.Generator:
    """A generator keyed by ``words`` (seed first, then a purpose tag)."""
    return np.random.default_rng([int(w) for w in words])


def zipf_ranks(rng: np.random.Generator, size: int, n: int) -> np.ndarray:
    """``size`` ranks in ``[0, n)`` from Zipf(``ZIPF_EXPONENT``) truncated to ``n``."""
    out = np.empty(0, dtype=np.int64)
    while out.size < size:
        draw = rng.zipf(ZIPF_EXPONENT, size=2 * size)
        out = np.concatenate([out, draw[draw <= n] - 1])
    return out[:size]


def key_order(seed: int, keys: np.ndarray) -> np.ndarray:
    """Popularity order of the serve keys: rank r maps to ``order[r]``."""
    return keys[seed_rng(seed, 3).permutation(keys.size)]


def upsert_batch(seed: int, number: int, keys: np.ndarray, dim: int):
    """The ``number``-th scripted upsert (1-based): existing keys, new vectors."""
    rng = seed_rng(seed, 7, number)
    chosen = keys[rng.choice(keys.size, size=UPSERT_ROWS, replace=False)]
    vectors = rng.normal(size=(UPSERT_ROWS, dim)).astype(np.float32)
    return chosen, vectors


def _write_graph(graph, path: Path) -> None:
    from repro.graph.io import save_edge_list

    save_edge_list(graph, path, weighted=False)


def _graph_inputs(workload: str, seed: int, out: Path) -> dict:
    from repro.evaluation.linkpred import sample_non_edges, split_edges
    from repro.graph.datasets import load_graph

    name, scale = GRAPHS[workload]
    graph = load_graph(name, scale, seed=seed)
    meta = {"dataset": name, "scale": scale, "num_nodes": graph.num_nodes}
    if workload == "e2e-deepwalk":
        rng = seed_rng(seed, 1)
        train, held = split_edges(graph, test_fraction=HOLDOUT_FRACTION, seed=rng)
        non_edges = sample_non_edges(graph, held.shape[0], seed=rng)
        pairs = np.concatenate([held, non_edges])
        labels = np.concatenate([np.ones(held.shape[0]), np.zeros(non_edges.shape[0])])
        with open(out / "linkpred_pairs.txt", "w") as fh:
            fh.write("# src dst label (1 = held-out edge, 0 = sampled non-edge)\n")
            for (a, b), y in zip(pairs.tolist(), labels.astype(np.int64).tolist()):
                fh.write(f"{a} {b} {y}\n")
        graph = train
        meta["heldout_edges"] = int(held.shape[0])
    _write_graph(graph, out / "graph.txt")
    meta["edge_entries"] = graph.num_edge_entries
    toy = load_graph(name, TOY_SCALE, seed=seed)
    _write_graph(toy, out / "toy_graph.txt")
    meta["toy_num_nodes"] = toy.num_nodes
    return meta


def serve_vectors(seed: int, rows: int, dim: int) -> np.ndarray:
    """Clustered float32 vectors, so top-k neighbourhoods are not uniform noise."""
    rng = seed_rng(seed, 2, rows)
    centers = rng.normal(size=(SERVE_CLUSTERS, dim))
    member = rng.integers(0, SERVE_CLUSTERS, size=rows)
    return (centers[member] + 0.6 * rng.normal(size=(rows, dim))).astype(np.float32)


def _serve_inputs(seed: int, out: Path) -> dict:
    from repro.serving.store import EmbeddingStore

    for name, rows in (("store.emb", SERVE_ROWS), ("toy_store.emb", 512)):
        keys = np.arange(rows, dtype=np.int64)
        EmbeddingStore(keys, serve_vectors(seed, rows, SERVE_DIM)).save(out / name)
    return {"rows": SERVE_ROWS, "dim": SERVE_DIM, "zipf": ZIPF_EXPONENT}


def _run(cmd) -> str:
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as err:
        return f"unavailable ({err})"
    return (proc.stdout or proc.stderr).strip().splitlines()[0] if proc.returncode == 0 else "unavailable"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint(root: Path) -> dict:
    """Hardware and toolchain facts a reader needs to compare two runs."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    git_sha = "unavailable (not a git checkout)"
    if (root / ".git").exists():
        git_sha = _run(["git", "-C", str(root), "rev-parse", "HEAD"])
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS", "unset"),
        "cc": _run([os.environ.get("CC", "cc"), "--version"]),
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
    }


def build_kernel_cache() -> float:
    """Compile (or find cached) the cnative walk kernels; returns seconds."""
    from repro.walks.kernels import resolve_backend

    return float(resolve_backend("cnative").warmup())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    if args.workload == "serve-zipf":
        meta = _serve_inputs(args.seed, args.out)
    else:
        meta = _graph_inputs(args.workload, args.seed, args.out)
        meta["kernel_compile_s"] = build_kernel_cache()
    meta["seed"] = args.seed
    (args.out / "meta.json").write_text(json.dumps(meta, indent=2))
    root = Path(__file__).resolve().parent.parent
    (args.out / "fingerprint.json").write_text(json.dumps(fingerprint(root), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
