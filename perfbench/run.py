"""chaincontrib benchmark.

    python3 perfbench/run.py --workload campaign-2k --seed 7 --seconds 40 --trace 0

Runs one workload (see README.md in this directory) against the package
sources under ``src/`` of the checkout this file sits in. Earlier stdout
lines describe the environment and, with ``--trace 1``, every span's
total and self time; the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json,
``--trace 1`` its per-layer metrics. Exits 2 without a result when the
checkout holds no package sources.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _openblas() -> tuple[str, int | None]:
    """Runtime OpenBLAS configuration and thread count, when numpy bundles it."""
    import numpy as np

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    if not libs:
        return "unknown", None
    lib = ctypes.CDLL(libs[0])
    try:
        config = lib.scipy_openblas_get_config64_
        threads = lib.scipy_openblas_get_num_threads64_
    except AttributeError:
        return "unknown", None
    config.argtypes = threads.argtypes = []
    config.restype = ctypes.c_char_p
    threads.restype = ctypes.c_int
    return config().decode(), threads()


def environment(workload, seed: int, traced: bool) -> dict:
    import numpy as np

    openblas, threads = _openblas()
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": int(traced),
        "rows": workload.rows,
        "actors": len(workload.weights),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas,
        "blas_threads": threads,
        "blas_thread_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "commit": _commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "chaincontrib" / "__init__.py").is_file():
        print(f"no chaincontrib package under {src}; nothing to benchmark", file=sys.stderr)
        return 2
    # A terminated run still stops its actor processes and removes its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # One BLAS thread, here and in the actor processes, which inherit the
    # environment: set before numpy is first imported.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))

    import workloads
    from spans import span_table

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    traced = bool(args.trace)
    print(json.dumps({"environment": environment(workload, args.seed, traced)}), flush=True)
    (ROOT / ".perfbench-work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench-work"))
    try:
        run = workloads.measure(workload, args.seed, args.seconds, traced, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"timings": workloads.timing_summary(run)}), file=sys.stderr)
    if traced:
        print(json.dumps({"spans": span_table(run.recorder.spans)}), flush=True)
    print(json.dumps(workloads.report(run)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
