"""spikeslab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from src/.
--trace 0 measures the end-to-end metrics and --trace 1 the per-layer ones
(see BENCHMARK.json and perfbench/README.md).  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.

This launcher uses the standard library only.  It pins the BLAS/OpenMP
pools to one thread, so the only parallelism is the harness's own process
pool; times set-up in fresh processes; and runs the workload in worker.py.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4  # fresh-process set-ups besides the measured run's own
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class WorkerError(RuntimeError):
    pass


def run_worker(args: list[str], env: dict, deadline: float) -> tuple[dict, list[str]]:
    """Run worker.py in its own process group; returns (result, report lines)."""
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError("worker exceeded the time limit")
    finally:
        # the harness's pool workers share the group; none may outlive a run
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:  # the group is already gone
            pass
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    lines = out.splitlines()
    if not lines:
        raise WorkerError("worker printed nothing")
    return json.loads(lines[-1]), lines[:-1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every input (self-test only)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "spikeslab" / "__init__.py").is_file():
        print(f"error: no spikeslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    common = ["--workload", args.workload, "--seed", str(args.seed)] + (
        ["--tiny"] if args.tiny else [])

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probe, _ = run_worker(common + ["--seconds", "0", "--setup-only"],
                                      env, deadline)
                setups.append(probe["setup_s"])
        result, report = run_worker(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            env, deadline)
    except (WorkerError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for line in report:
        print(line)
    if not args.trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        print("# setup_s is the median of " + ", ".join(f"{s:.4f}" for s in setups))
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
