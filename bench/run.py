"""tverlab benchmark: one workload, one seed, one single-threaded process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a tverlab checkout; it imports ``tverlab`` from that
checkout's ``src/`` and refuses to run without it.  Workloads are defined in
``workloads.py``; the metrics they report are named in ``BENCHMARK.json``.

A run is a number of equal rounds, each with its own seeded inputs (see
``workloads.py``).  ``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: the median over several fresh processes of the time to start
  the interpreter, import tverlab and write the seeded inputs, at
  uncontended machine speed (see :class:`SpeedGauge`);
* ``wall_s``: the median over rounds of the time from a round's first CLI
  call to its last checked answer, at uncontended machine speed (see
  :class:`SpeedGauge`); every round's time as measured is printed too;
* ``answers_per_s``: checked answers of a round divided by ``wall_s``;
* ``peak_rss_mb``: peak resident memory of the run's process.

``--trace 1`` runs the same rounds untraced and then traced (see
``tracing.py``) and reports the per-layer metrics; ``trace.overhead_s`` is
the traced ``wall_s`` minus the untraced one.

Human-readable lines come first: the environment stamp, every metric with
its unit, the answer tally, a digest of the CLI output without its timing
fields, and a comparison with ``baseline.json`` when the Rational backend
matches.  The last line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 3
#: Mean time of one ``speed_probe`` inside a round when no other tenant of
#: the machine slows it, measured where ``baseline.json`` was (a 2-vCPU
#: Intel Xeon VM, Python 3.11, Fraction backend).  It only sets the scale.
PROBE_S = 0.0003


def import_tverlab():
    """Import tverlab from this checkout's ``src/``, or exit non-zero."""
    init = SRC / "tverlab" / "__init__.py"
    if not init.is_file():
        sys.exit(f"bench: {init} not found; run from the root of a tverlab checkout")
    sys.path.insert(0, str(SRC))
    import tverlab

    if Path(tverlab.__file__).resolve() != init.resolve():
        sys.exit(f"bench: imported tverlab from {tverlab.__file__}, not {init}")
    return tverlab


def environment(tverlab) -> dict:
    rational = tverlab.Rational
    return {
        "python": platform.python_version(),
        "rational": f"{rational.__module__}.{rational.__qualname__}",
        "nproc": os.cpu_count(),
    }


@contextlib.contextmanager
def work_dir(name: str):
    """A fresh directory under ``.bench_work`` as the working directory."""
    path = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(path)
    try:
        yield Path(".")
    finally:
        os.chdir(cwd)
        shutil.rmtree(path, ignore_errors=True)


def setup_probe_seconds(args) -> float:
    """Seconds from starting a fresh process to its inputs being written, at
    uncontended speed as gauged by probes just before and just after it."""
    argv = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0"]
    gauge = SpeedGauge()
    for _ in range(10):
        gauge.sample()
    start = time.perf_counter()
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
    elapsed = time.perf_counter() - start
    for _ in range(10):
        gauge.sample()
    return elapsed * PROBE_S / statistics.fmean(gauge.samples)


def speed_probe():
    """A fixed piece of exact arithmetic: the kind of work tverlab does."""
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(1, i)
    return total


class SpeedGauge:
    """Times ``speed_probe`` every ``period`` seconds while a block runs.

    On a shared machine other tenants slow every instruction stream by up
    to a half, for seconds at a time, and a round of the same work then
    takes that much longer.  The probes run in a timer signal handler,
    between the program's own bytecodes, so they see the slowdown the round
    sees, and :meth:`uncontended` divides it out.  On a shared 2-vCPU Intel
    Xeon VM this cut the variation of one round's time, repeated for two
    minutes, from about 15% to about 4%.
    """

    def __init__(self, period=0.05):
        self.period = period
        self.samples = []

    def sample(self, signum=None, frame=None):
        start = time.perf_counter()
        speed_probe()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def uncontended(self, seconds: float) -> float:
        """``seconds`` measured in the block, without the probes' own time,
        scaled to the speed at which a probe takes ``PROBE_S``."""
        probes = sum(self.samples)
        if not self.samples:
            self.sample()
        return (seconds - probes) * PROBE_S / statistics.fmean(self.samples)


def execute(workload, plans):
    """Run every round.

    Returns the round times as measured and at uncontended speed, the tally
    and the CLI digest.
    """
    from workloads import Cli, Tally

    cli, tally = Cli(), Tally()
    measured, uncontended = [], []
    for plan in plans:
        with SpeedGauge() as gauge:
            start = time.perf_counter()
            workload.run_round(plan, cli, tally)
            elapsed = time.perf_counter() - start
        measured.append(elapsed)
        uncontended.append(gauge.uncontended(elapsed))
    return measured, uncontended, tally, cli.digest.hexdigest()


def print_baseline(env, workload, seconds, metrics):
    path = BENCH / "baseline.json"
    if not path.is_file():
        return
    baseline = json.loads(path.read_text())
    if baseline["run_seconds"] != seconds:
        print(f"baseline not compared: it was recorded with --seconds {baseline['run_seconds']}")
        return
    if baseline["env"]["rational"] != env["rational"]:
        print(f"baseline not compared: it was recorded with {baseline['env']['rational']}, "
              f"this run uses {env['rational']}, and the backend changes every LP number")
        return
    recorded = baseline["workloads"].get(workload, {})
    recorded = {**recorded.get("median", {}), **recorded.get("per_layer_seed1", {})}
    for name, metric in metrics.items():
        if recorded.get(name):
            ratio = metric["value"] / recorded[name]
            print(f"baseline {name} {recorded[name]!r} now {metric['value']!r} ({ratio:.3f}x)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    tverlab = import_tverlab()
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    rounds = max(1, round(args.seconds / workload.round_s))

    if args.setup_probe:
        with work_dir(f"{workload.name}-probe") as wd:
            workload.setup(args.seed, rounds, wd)
        return 0

    env = environment(tverlab)
    setup_times = [] if args.trace else [setup_probe_seconds(args) for _ in range(SETUP_PROBES)]
    with work_dir(workload.name) as wd:
        plans = workload.setup(args.seed, rounds, wd)
        measured, times, tally, digest = execute(workload, plans)
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                _, traced_times, traced_tally, traced_digest = execute(workload, plans)
            finally:
                tracer.uninstall()
    wall = statistics.median(times)

    attempted, failed = tally.attempted, tally.failed
    problems = list(tally.problems)
    if args.trace:
        attempted += traced_tally.attempted
        failed += traced_tally.failed
        problems += traced_tally.problems
        if traced_digest != digest:
            problems.append("traced CLI output differs from untraced output")
        tracer.write_spans(OUT / f"spans-{workload.name}.csv")
        metrics = tracer.layer_metrics(overhead_s=statistics.median(traced_times) - wall)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "answers_per_s": {"value": tally.attempted / len(times) / wall, "unit": "1/s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MiB",
            },
        }

    print("env " + json.dumps(env))
    print(f"run workload={workload.name} seed={args.seed} rounds={rounds} trace={args.trace}")
    print("round_s measured " + " ".join(f"{t:.4f}" for t in measured))
    print("round_s uncontended " + " ".join(f"{t:.4f}" for t in times))
    for name, metric in metrics.items():
        print(f"metric {name} {metric['value']!r} {metric['unit']}")
    print(f"answers attempted={attempted} failed={failed} failed_frac={failed / attempted!r}")
    print(f"cli_digest {digest}")
    print_baseline(env, workload.name, args.seconds, metrics)
    for problem in problems[:10]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
