"""The repository benchmark: locator training, locator inference and
sharded attack campaigns, end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload fit-rd4 --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one report

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs one untraced and one traced iteration and reports the per-layer
metrics (see ``perfbench/README.md``).  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it are a human-readable report.  The exit code is 0 when
every correctness check passed, 1 when one failed and 2 when the program
under test cannot be imported.
"""

from __future__ import annotations

import os

# BLAS/OpenMP pools must be capped before numpy is first imported.  One
# thread each keeps the parent plus the campaign's pool within nproc.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("fit-rd4", "locate-rd4", "campaign-rd2")
#: The end-to-end metrics every workload reports, with their units.
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "iteration_s": "s"}
DEFAULT_SEED = 0                 # seed 7 is held out for later claims


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def environment(workers: int | None) -> dict:
    import numpy
    import scipy
    import scipy.fft
    from repro.backend import get_backend

    return {
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "fft_workers": scipy.fft.get_workers(),
        "campaign_workers": workers,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "array_backend": get_backend().name,
    }


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process (so peak RSS stays per workload)."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        if done.returncode == 2 or not lines:
            return done.returncode or 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    begin = time.perf_counter()
    try:
        import repro
        if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
            raise ImportError(f"found another copy at {repro.__file__}")
        from perfbench import workloads
    except ImportError as error:
        print(f"perfbench: cannot import the program under test from "
              f"{ROOT / 'src'}: {error}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - begin

    work_dir = Path.cwd() / ".perfbench_work"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir()
    try:
        if args.workload == "campaign-rd2":
            workload = workloads.CampaignRd2(args.seed, work_dir)
        elif args.workload == "locate-rd4":
            workload = workloads.LocateRd4(args.seed)
        else:
            workload = workloads.FitRd4(args.seed)
        setup_s = import_s + workload.setup()
        if args.trace:
            runs, metrics = traced_runs(workload)
        else:
            runs = workloads.repeat_for(args.seconds, workload.iteration,
                                        workload.min_iterations)
        outcome = workload.evaluate(runs)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    env = environment(workloads.CAMPAIGN_WORKERS
                      if args.workload == "campaign-rd2" else None)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"iterations {len(outcome.iter_s)}  trace {args.trace}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"  {'setup_s':<28}{setup_s:>14.4f} s")
    print(f"  {'iteration_s (median)':<28}{statistics.median(outcome.iter_s):>14.4f} s"
          f"   all: {' '.join(f'{t:.3f}' for t in outcome.iter_s)}")
    for name, (value, unit) in outcome.report.items():
        print(f"  {name:<28}{value:>14.4f} {unit}")
    for name, passed in outcome.checks.items():
        print(f"  check {name}: {'ok' if passed else 'FAILED'}")
    for name, passed in outcome.quality.items():
        print(f"  quality {name}: {'ok' if passed else 'below floor'}")
    correct = all(outcome.checks.values()) and outcome.failed == 0

    if not args.trace:
        values = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb(),
                  "iteration_s": statistics.median(outcome.iter_s)}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


def traced_runs(workload):
    """One untraced and one traced iteration on the same inputs.

    Pool workers are separate processes the tracer cannot see, so a
    campaign's traced iteration dispatches its shards inline; its untraced
    twin does too, and a normal pool iteration first supplies the runtime
    layer's figures (pool wait, busy ratio).
    """
    from perfbench.layers import PER_LAYER, per_layer_metrics, instrument
    from perfbench.tracer import Tracer
    from perfbench.workloads import CampaignRd2, timed

    runs = []
    step = workload.iteration
    if isinstance(workload, CampaignRd2):
        runs.append(workload.iteration())
        step = lambda: workload.iteration(workers=1)  # noqa: E731
    untraced_s, run = timed(step)
    runs.append(run)
    tracer = Tracer()
    instrument(tracer)
    tracer.enabled = True
    try:
        traced_s, run = timed(step)
    finally:
        tracer.enabled = False
        tracer.restore()
    runs.append(run)
    runtime = (workload.runtime_metrics(runs[0])
               if isinstance(workload, CampaignRd2) else {})
    values = per_layer_metrics(tracer, runtime, untraced_s, traced_s)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in PER_LAYER.items()}
    return runs, metrics


if __name__ == "__main__":
    sys.exit(main())
