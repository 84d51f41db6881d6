"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload adapt-craft --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all

The package is imported from ``src/`` beside this directory; nothing needs to
be built.  BLAS and OpenMP are pinned to one thread before numpy loads.  The
output ends with two JSON lines: the run's details with an environment block,
then the result, ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones.  Scratch files go to ``.bench_work/`` and are removed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("adapt-craft", "train-source", "sweep-grid")


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p


def _blas_threads():
    """Threads the loaded OpenBLAS reports, where numpy ships scipy-openblas."""
    import ctypes

    import numpy

    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
    if not libs:
        return None
    try:
        get = ctypes.CDLL(str(libs[0])).scipy_openblas_get_num_threads64_
    except (OSError, AttributeError):
        return None
    get.restype = ctypes.c_int
    return get()


def environment(seed: int) -> dict:
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas_threads": _blas_threads(),
        "seed": seed,
    }


def _run_all(args) -> int:
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = max(code, subprocess.run(cmd, check=False).returncode)
    return code


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    try:
        import craft
    except ImportError as exc:
        print(f"cannot import the craft package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(craft.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"craft was imported from {craft.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    from bench.runner import measure

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        result, details = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                                  workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    details["environment"] = environment(args.seed)
    for name, m in result["metrics"].items():
        print(f"{args.workload:13s} {name:45s} {m['value']!r:>24} {m['unit']}")
    print(f"{args.workload:13s} correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    sys.exit(main())
