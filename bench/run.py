"""Benchmark of the blindspots library and its CLI.

    python3 bench/run.py --workload maps --seed 1 --seconds 20 --trace 0

Runs one workload (maps, spots, timescales or flows) for --seconds in a
fresh single-threaded worker process, checks every output, and prints as its
last line one JSON object with the keys correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones; with --trace 1
they are the per-layer ones and the tracing overhead.  README.md in this
directory describes the workloads and the metrics.
"""

import os

# Set before numpy loads, here and in every process started from here.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOADS = ("maps", "spots", "timescales", "flows")
SETUP_PROBES = 5
DEADLINE_S = 170.0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="Benchmark of the blindspots library and CLI.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="timed job time to run; whole rounds, at least one")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics instead of end-to-end ones")
    p.add_argument("--role", choices=("launcher", "probe", "worker"), default="launcher",
                   help=argparse.SUPPRESS)
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- worker side ------------------------------------------------------------------

def setup(args):
    """Import numpy and blindspots from this checkout and make the inputs."""
    sys.path.insert(0, str(SRC))
    import blindspots
    from tracing import Tracer
    import workloads

    if Path(blindspots.__file__).resolve().parent != SRC / "blindspots":
        raise SystemExit(f"blindspots imported from {blindspots.__file__}, not {SRC}")
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    jobs = workloads.build(args.workload, args.seed, workdir, tracer.add_output)
    return jobs, tracer


class HostGauge:
    """A fixed piece of work that does not use blindspots, of the three kinds
    the workloads do: complex numpy array evaluation, an interpreted loop of
    small numpy calls, and formatting floats to text.  It takes about 20 ms
    and runs before every job.

    The shared host's speed drifts by up to a factor of two over seconds and
    minutes, and a run of half a minute sees only part of that drift.  The
    gauge's mean time in a run says how fast the host was during the run's
    jobs, and `scale` turns job times into times on a host where the gauge
    takes NOMINAL_S."""

    NOMINAL_S = 0.02

    def __init__(self):
        import numpy as np

        self.np = np
        self.x = np.linspace(0.0, 7.0, 2000)
        self.m = 0.5 * np.eye(2)
        self.values = np.sin(3.5 * np.arange(3000)).tolist()
        self.samples = []

    def __call__(self):
        np, x, m = self.np, self.x, self.m
        start = time.perf_counter()
        for _ in range(2):
            for k in range(1, 11):
                field = np.exp(1j * k * x[:, None] * x[None, :4]) * np.exp(-0.1 * x)[:, None]
                float(np.abs(field).sum())
            acc = m
            for _ in range(1400):
                acc = acc @ m + m
            ",".join(map(repr, self.values))
        self.samples.append(time.perf_counter() - start)

    def scale(self):
        """The factor from measured to nominal host speed, and the mean
        gauge time it comes from; starts a new set of samples."""
        mean, self.samples = statistics.fmean(self.samples), []
        return self.NOMINAL_S / mean, mean


class Runner:
    """Runs rounds of jobs, counts failures and checks every output."""

    def __init__(self, jobs):
        from blindspots import BlindspotsError
        from workloads import JobFailed

        self.jobs = jobs
        self.gauge = HostGauge()
        self.expected_errors = (BlindspotsError, JobFailed)
        self.reference = {}
        self.problems = []
        self.reported = set()
        self.attempted = 0
        self.failed = 0

    def _run(self, job):
        start = time.perf_counter()
        try:
            outcome = job.run()
        except self.expected_errors as exc:
            return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
        except Exception:
            return time.perf_counter() - start, None, traceback.format_exc()
        return time.perf_counter() - start, outcome, None

    def warm_up(self):
        """One untimed job, not counted."""
        self._run(self.jobs[0])

    def rounds(self, seconds):
        """Whole rounds until their job time reaches `seconds`; each round
        as {job name: duration}."""
        out = []
        while not out or sum(sum(r.values()) for r in out) < seconds:
            out.append(self._round())
        return out

    def _round(self):
        durations = {}
        for job in self.jobs:
            self.gauge()
            dur, outcome, error = self._run(job)
            durations[job.name] = dur
            self.attempted += 1
            if error is None:
                self._verify(job, outcome)
            else:
                self.failed += 1
                self._report(job.name, f"failed: {error}")
        return durations

    def _verify(self, job, outcome):
        try:
            digest = job.fingerprint(outcome)
            if job.name not in self.reference:
                self.reference[job.name] = digest
                found = job.check(outcome)
            elif digest != self.reference[job.name]:
                found = ["output differs from the first round"]
            else:
                found = []
        except Exception:
            found = [f"check raised: {traceback.format_exc()}"]
        for text in found:
            self.problems.append(f"{job.name}: {text}")
            self._report(job.name, f"wrong: {text}")

    def _report(self, name, text):
        if (name, text) not in self.reported:
            self.reported.add((name, text))
            print(f"[bench] {name} {text}", file=sys.stderr)


def job_times(rounds):
    """Each job's mean duration over the rounds."""
    return [statistics.fmean(r[name] for r in rounds) for name in rounds[0]]


def host_scale(gauge):
    """The host speed factor just after set-up, from five gauge runs."""
    for _ in range(5):
        gauge()
    return gauge.scale()[0]


def worker(args):
    jobs, tracer = setup(args)
    ready = time.monotonic()
    runner = Runner(jobs)
    setup_scale = host_scale(runner.gauge)
    runner.warm_up()
    if args.trace:
        plain = sum(job_times(runner.rounds(args.seconds / 2))) * runner.gauge.scale()[0]
        tracer.install()
        traced = runner.rounds(args.seconds / 2)
        metrics = tracer.metrics(len(traced),
                                 sum(job_times(traced)) * runner.gauge.scale()[0] - plain)
    else:
        times = job_times(runner.rounds(args.seconds))
        scale, gauge_s = runner.gauge.scale()
        print(f"[bench] measured wall_s {sum(times)!r} job_p50_s {statistics.median(times)!r}"
              f" gauge_s {gauge_s!r}", file=sys.stderr)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "wall_s": {"value": sum(times) * scale, "unit": "s"},
            "job_p50_s": {"value": statistics.median(times) * scale, "unit": "s"},
            "peak_rss_mb": {"value": peak_kib * 1024 / 1e6, "unit": "MB"},
        }
    return {"ready": ready, "setup_scale": setup_scale, "correct": not runner.problems,
            "attempted": runner.attempted, "failed": runner.failed, "metrics": metrics}


def probe(args):
    setup(args)
    ready = time.monotonic()
    return {"ready": ready, "setup_scale": host_scale(HostGauge())}


# -- launcher side ------------------------------------------------------------------

def spawn(role, args, workdir, deadline):
    """Run this script as `role`; its result and its set-up time, measured
    from just before the process starts to its inputs being ready, unscaled
    and scaled to nominal host speed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=max(1.0, deadline - start))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{role} process exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    measured = result.pop("ready") - start
    return result, (measured, measured * result.pop("setup_scale"))


def launcher(args):
    if not (SRC / "blindspots" / "__init__.py").is_file():
        print(f"error: no blindspots package under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    # On SIGTERM, unwind: subprocess.run kills and reaps the running child
    # and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    base = ROOT / ".bench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    setup_s = []
    try:
        if not args.trace:
            for k in range(SETUP_PROBES):
                setup_s.append(spawn("probe", args, base / f"probe-{k}", deadline)[1])
        result, worker_setup = spawn("worker", args, base / "worker", deadline)
        setup_s.append(worker_setup)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            base.parent.rmdir()
        except OSError:
            pass
    if not args.trace:
        print(f"[bench] measured setup_s {statistics.median(m for m, _ in setup_s)!r}",
              file=sys.stderr)
        result["metrics"]["setup_s"] = {"value": statistics.median(s for _, s in setup_s),
                                        "unit": "s"}
    print(json.dumps(result))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.role == "launcher":
        return launcher(args)
    result = worker(args) if args.role == "worker" else probe(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
