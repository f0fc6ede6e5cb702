"""rankrange benchmark: one command, every metric, correctness checked.

    python3 perfbench/run.py --workload search --seed 1 --seconds 8 --trace 0

Run from the root of a checkout that holds ``src/rankrange``. Workloads
(see ``perfbench/worker.py`` for their sizes and why each was chosen):

* ``search``  -- N = 3k-2 / 3k-1 at k = 10, 15, 20: the re-partition search
  and its tail, under a per-call budget;
* ``dense``   -- N = 3k and k = 1 at N = 150, 300, 600: ingest, dense
  assembly and the rank-1 support scan;
* ``membership`` -- region build, ``contains``, the brute-force oracle and
  ``interior_point`` at N = 9, 12, 64, 600.

This launcher times set-up in fresh processes (interpreter start, ``import
rankrange`` and one warm-up call of each operation), then runs the
workload in one more process so that its peak memory is its own, and
reports the median set-up. BLAS and OpenMP run single-threaded. The last
line of standard output is the result: ``{"correct", "attempted",
"failed", "metrics"}``; the line before it records the environment, the
budget and every failure. With
``--trace 1`` the metrics are the per-layer ones, and the spans are
written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("search", "dense", "membership")
#: fresh processes that only set up, besides the workload's own
SETUP_PROBES = 2
#: a set-up that takes longer than this is a hang
SETUP_TIMEOUT_S = 60.0
#: the whole command must end within 180 s; set-up probes take ~1 s each
RUN_TIMEOUT_S = 170.0


def _environment(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    # the same bytecode work on every run, and nothing written under src/
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _start(argv, env, root):
    return subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")]
                            + argv, env=env, cwd=root, text=True,
                            stdout=subprocess.PIPE)


def _await_ready(proc, started: float) -> float:
    """Seconds from process start until the worker reports it is set up."""
    line = proc.stdout.readline()
    if line.strip() != "ready":
        raise RuntimeError(f"worker did not set up: {line!r}")
    return time.perf_counter() - started


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "rankrange",
                                       "__init__.py")):
        print("run from the root of a rankrange checkout "
              "(src/rankrange not found)", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)   # metric names and units
    env = _environment(root)

    setup = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        proc = _start(["--setup-only"], env, root)
        try:
            setup.append(_await_ready(proc, started))
            proc.wait(timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"set-up probe ran past {SETUP_TIMEOUT_S:g} s",
                  file=sys.stderr)
            return 1
        finally:
            _stop(proc)
        if proc.returncode != 0:
            print(f"set-up probe exited with {proc.returncode}",
                  file=sys.stderr)
            return 1

    started = time.perf_counter()
    proc = _start(["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds),
                   "--trace", str(args.trace)], env, root)
    try:
        setup.append(_await_ready(proc, started))
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"workload ran past {RUN_TIMEOUT_S:g} s", file=sys.stderr)
        return 1
    finally:
        _stop(proc)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        print(f"workload exited with {proc.returncode}", file=sys.stderr)
        return 1
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    info["setup_s_samples"] = setup
    values = result["metrics"]
    if not args.trace:
        values["setup_s"] = statistics.median(setup)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        print(f"reported metrics {sorted(values)} differ from "
              f"BENCHMARK.json", file=sys.stderr)
        return 1
    result["metrics"] = {m["name"]: {"value": values[m["name"]],
                                     "unit": m["unit"]} for m in declared}
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
