"""Run one benchmark workload against the ctmcpert sources of this checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Operations are ``ctmcpert`` command lines called in-process through
``cli.main``, one at a time, in whole rounds until ``--seconds`` have
passed.  Each parses its scenario and builds its chains afresh, as one
command-line invocation does.  The seed reaches the program only as
``--seed``.  After the timed operations every output is checked, and the
last line of standard output is one JSON object with the result.

With ``--trace 0`` the metrics are the end-to-end ones (set-up time,
least operation time, peak resident set).  Times are CPU seconds:
ctmcpert runs on one thread (BLAS is pinned to one), so on a quiet machine
they equal wall seconds, and they leave out the time the process waits for
a core on a shared host.  With ``--trace 1`` ctmcpert's public names are
wrapped by ``tracing.Tracer`` and the metrics are the per-layer ones, as
means per operation.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
THREADS = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                  "MKL_NUM_THREADS")}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cpu_seconds() -> float:
    """CPU time used so far by this process and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def measure_setup(workload: str) -> float:
    """CPU seconds of one set-up of the workload in a fresh interpreter."""
    env = dict(os.environ, **THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"),
                           workload], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{done.stderr}")
    return float(done.stdout.split()[-1])


def fastest_operation(done) -> float:
    """Mean over the round's operations of each one's least CPU time.

    On a shared host, work running next to this process on the same core
    can double its CPU time for spans shorter than an operation.  A median
    operation carries that load; the least time of each operation carries
    the least of it."""
    times = {}
    for label, _, _, seconds in done:
        times[label] = min(seconds, times.get(label, seconds))
    return statistics.fmean(times.values())


def run_operation(cli, argv: list[str]) -> tuple[int, str]:
    """Exit code and console output of one in-process command line."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return cli.main(argv), sink.getvalue()
        except Exception:  # an operation that crashes counts as failed
            traceback.print_exc()
            return -1, sink.getvalue()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ctmcpert" / "__init__.py").is_file():
        sys.stderr.write(f"no ctmcpert sources under {SRC}\n")
        return 2
    os.environ.update(THREADS)  # before numpy is imported
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}\n")
        return 2
    work = WORKLOADS[args.workload]

    from ctmcpert import cli
    if Path(cli.__file__).resolve().parent != SRC / "ctmcpert":
        sys.stderr.write(f"ctmcpert imported from {cli.__file__}\n")
        return 2
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    out = OUT / work.name
    shutil.rmtree(out, ignore_errors=True)
    scenario_dir = out / "scenarios"
    scenario_dir.mkdir(parents=True)
    for stem, text in work.scenario_texts().items():
        (scenario_dir / f"{stem}.scn").write_text(text)
    round_ops = work.operations(scenario_dir)

    done = []  # (label, op_dir, exit code, CPU seconds)
    # One fresh-interpreter set-up follows every untraced operation, so
    # that set-ups, like operations, are spread over the whole run.
    setup_times = []
    start = perf_counter()
    while True:
        for label, tail in round_ops:
            op_dir = out / f"op{len(done):03d}"
            gc.collect()
            if tracer:
                tracer.start_operation()
            t0 = cpu_seconds()
            code, console = run_operation(
                cli, ["--out", str(op_dir), "--seed", str(args.seed)] + tail)
            done.append((label, op_dir, code, cpu_seconds() - t0))
            if code != 0:
                sys.stderr.write(console[-2000:])
            if not tracer:
                setup_times.append(measure_setup(work.name))
        if perf_counter() - start >= args.seconds:
            break
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    work.prepare(args.seed)
    failed = 0
    correct = True
    for label, op_dir, code, _ in done:
        if code != 0:
            failed += 1
            sys.stderr.write(f"{label} in {op_dir.name}: exit code {code}\n")
            continue
        problems = work.check(label, op_dir)
        if problems:
            failed += 1
            correct = False
            for problem in problems:
                sys.stderr.write(f"{label} in {op_dir.name}: {problem}\n")

    op_s = fastest_operation(done)
    if tracer:
        metrics = tracer.metrics(len(done))
        metrics["trace.op_s"] = (op_s, "s")
        csv_bytes = sum(p.stat().st_size for _, op_dir, _, _ in done
                        for p in op_dir.glob("*.csv"))
        metrics["cli.csv_bytes"] = (csv_bytes / len(done), "bytes")
    else:
        metrics = {"setup_s": (min(setup_times), "s"),
                   "op_s": (op_s, "s"),
                   "peak_rss_mb": (peak_kb / 1024.0, "MB")}
    print(json.dumps({
        "correct": correct, "attempted": len(done), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
