"""Benchmark of spectral_billiards, driven through spectral_billiards.cli.main.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; the package is imported from ./src.  The
workload's inputs are generated from the seed (see workloads.py), then
whole rounds of its CLI commands run back to back until S seconds of
command time have been measured.  Every output is checked against the
independent computations in oracles.py.  Times are reported at reference
speed, scaled by a speed gauge run between commands (speed.py).  The last
line of standard output is one JSON object with "correct", "attempted",
"failed" and "metrics": with --trace 0 the end-to-end metrics, with
--trace 1 the per-layer ones.
"""

from __future__ import annotations

import os

# one process, one thread: BLAS pools are pinned before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

import speed  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("ellipse-circles", "liouville-rigidity", "sequential-orbits", "disk-clusters")
SETUP_REPEATS = 3


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def import_seconds(src: str) -> float:
    """Wall time of importing the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=src)
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import spectral_billiards.cli"], env=env, check=True)
    return perf_counter() - t0


class Runner:
    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.verified = {}          # label -> output bytes that passed the check
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.latencies = {cmd.label: [] for cmd in workload.commands}   # raw seconds
        self.scaled = {cmd.label: [] for cmd in workload.commands}      # at reference speed
        self.gauges = []                                                # per round

    def mean_latencies(self) -> list[float]:
        """Each command's mean latency over the run's rounds, in seconds at
        reference speed (speed.py).  The host's speed also wanders by about
        15% from one second to the next, which no gauge can follow; a mean
        over every round averages that out faster than a median."""
        return [statistics.mean(v) for v in self.scaled.values()]

    def call(self, cmd) -> int | None:
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink):
                return self.cli.main(cmd.argv())
        except Exception:  # a leaked exception is a failed command, not a crash
            log(f"{cmd.label}: exception\n{traceback.format_exc()}")
            return None
        finally:
            if sink.getvalue():
                log(f"{cmd.label}: {sink.getvalue().strip()[:400]}")

    def round(self):
        """Run every command once, or cmd.repeat times back to back, with a
        speed gauge before the first command and after each command.  The
        round is scaled to reference speed by the median of its gauges.
        Returns the round's command time, raw and at reference speed."""
        gauges, blocks, codes = [speed.gauge()], [], []
        for cmd in self.workload.commands:
            t0 = perf_counter()
            codes.append([self.call(cmd) for _ in range(cmd.repeat)])
            blocks.append(perf_counter() - t0)
            gauges.append(speed.gauge())
        scale = speed.scale(gauges)
        self.gauges.append(gauges)
        for cmd, block, rcs in zip(self.workload.commands, blocks, codes):
            self.latencies[cmd.label].append(block / cmd.repeat)
            self.scaled[cmd.label].append(block / cmd.repeat * scale)
            self.attempted += cmd.repeat
            bad = sum(rc != 0 for rc in rcs)
            if bad:
                self.failed += bad
                log(f"{cmd.label}: exit codes {rcs}")
                continue
            try:
                blob = b"".join(read_bytes(p) for p in cmd.outputs())
                if self.verified.get(cmd.label) != blob:
                    cmd.check(cmd)
                    self.verified[cmd.label] = blob
            except (workloads.CheckFailed, OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                self.failed += cmd.repeat
                self.correct = False
                log(f"{cmd.label}: check failed: {type(exc).__name__}: {exc}")
        return sum(blocks), sum(blocks) * scale


def setup(name, seed, src, cli):
    """Fresh-interpreter import, input generation and one warm-up command.
    Returns (seconds, seconds at reference speed, workload, workdir)."""
    before = speed.gauge()
    t_import = import_seconds(src)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=RESULTS)
    t0 = perf_counter()
    wl = workloads.build(name, seed, workdir)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(wl.warmup.argv())
    if rc != 0:
        raise RuntimeError(f"warm-up command exited with {rc}")
    seconds = t_import + perf_counter() - t0
    return seconds, seconds * speed.scale([before, speed.gauge()]), wl, workdir


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "spectral_billiards", "cli.py")):
        log("error: src/spectral_billiards not found; run from the repository root")
        return 2
    sys.path.insert(0, src)
    from spectral_billiards import cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        log(f"error: spectral_billiards imported from {cli.__file__}, not from {src}")
        return 2
    os.makedirs(RESULTS, exist_ok=True)

    setups, setups_scaled, workdirs = [], [], []
    try:
        for _ in range(SETUP_REPEATS):
            seconds, scaled, wl, workdir = setup(args.workload, args.seed, src, cli)
            setups.append(seconds)
            setups_scaled.append(scaled)
            workdirs.append(workdir)
        runner = Runner(cli, wl)
        if args.trace:
            metrics, walls = traced_rounds(runner, args.seconds)
        else:
            walls = []
            while not walls or sum(raw for raw, _ in walls) < args.seconds:
                walls.append(runner.round())
            metrics = {
                "wall_s": (statistics.mean(scaled for _, scaled in walls), "s"),
                "cmd_p50_s": (statistics.median(runner.mean_latencies()), "s"),
                "setup_s": (statistics.median(setups_scaled), "s"),
                "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            }
    finally:
        for workdir in workdirs:
            shutil.rmtree(workdir, ignore_errors=True)

    result = {"correct": runner.correct, "attempted": runner.attempted, "failed": runner.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    log(f"{args.workload} seed={args.seed}: {len(walls)} rounds of {len(wl.commands)} commands, "
        f"setups {[round(s, 3) for s in setups]}")
    with open(os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(dict(result, rounds=walls, setups=setups, setups_scaled=setups_scaled,
                       latencies=runner.latencies, scaled=runner.scaled,
                       gauges=runner.gauges),
                  fh, indent=1)
    print(json.dumps(result))
    return 0


def traced_rounds(runner, seconds):
    """Alternate plain and traced rounds; per-layer metrics are medians over
    the traced rounds, trace.overhead_s the difference of median round
    times.  Times are at reference speed, scaled by the round's gauges."""
    tracer = Tracer()
    plain, traced, samples = [], [], []
    while not plain or sum(raw for raw, _ in plain + traced) < seconds:
        plain.append(runner.round())
        tracer.reset()
        tracer.install()
        try:
            traced.append(runner.round())
        finally:
            tracer.uninstall()
        raw, scaled = traced[-1]
        samples.append({name: (value * scaled / raw if unit == "s" else value, unit)
                        for name, (value, unit) in tracer.metrics().items()})
    metrics = {name: (statistics.median(s[name][0] for s in samples), unit)
               for name, (_, unit) in samples[0].items()}
    metrics["trace.overhead_s"] = (statistics.median(sc for _, sc in traced)
                                   - statistics.median(sc for _, sc in plain), "s")
    return metrics, plain + traced


if __name__ == "__main__":
    sys.exit(main())
