"""Benchmark of the kleinlog command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; kleinlog is imported from src/.
Each run is a closed loop with one client: commands go through
kleinlog.cli.main(argv) in this process, with --threads 1, one after the
other, until S seconds have passed.  Inputs come from --seed only (see
workloads.py); every report is checked, and a command that exits non-zero
or fails its check counts as failed.

--trace 0 reports the end-to-end metrics, measured with tracing off:
  op_s.p50     median seconds of one command
  ops_per_s    checked commands completed per second of command time
  peak_rss_mb  peak resident set of this process
  setup_s      median over fresh interpreters, one started after each
               command, of the time until `import kleinlog` is done
--trace 1 alternates untraced and traced runs of one input and reports the
per-layer metrics: the self time of each layer's spans (all times are self
times, so they add up to the traced command time), the layers' work
counts, which must repeat exactly across the traced commands, and
trace.overhead, the traced median over the untraced median, minus 1.

The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}.  The line before it records
the sample counts and the machine.  Spans of a traced run are written to
.perfbench_out/ as JSON lines.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import traceback
from pathlib import Path
from time import monotonic, perf_counter

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_STARTS = 9     # fewest set-up samples in a run
MIN_TRACED = 2

E2E_UNITS = {"op_s.p50": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB",
             "setup_s": "s"}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("series", "automorphy", "bers", "delta"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# environment -------------------------------------------------------------------

def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _git_commit() -> str:
    git = ROOT / ".git"
    head = _read(git / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head or "unknown"
    ref = head[5:]
    commit = _read(git / ref)
    if commit:
        return commit
    for line in (_read(git / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def _cpu() -> dict:
    model = "unknown"
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}"] = _read(index / "size")
    return {"cpu_model": model, **caches}


def environment(seed: int) -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            **_cpu(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_commit": _git_commit(),
            "seed": seed}


# measurement -------------------------------------------------------------------

def fresh_start() -> float:
    """Seconds from spawning a fresh interpreter to `import kleinlog` done."""
    code = "import time, kleinlog; print(time.monotonic())"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = monotonic()
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True,
                          timeout=60)
    return float(done.stdout) - t0


class Runner:
    """Runs commands of one workload, keeping each exit code and report
    until `check` looks at them, so checking costs no loop time."""

    def __init__(self, cli_main, workload, reference, config: Path):
        self.cli_main = cli_main
        self.workload = workload
        self.reference = reference
        self.config = config
        self.out = OUT / f"{workload.name}.json"
        self.done = []
        self.failed = 0

    def run(self, job, tracer=None) -> float:
        """Run one command and return its seconds.  With a tracer, the
        command runs instrumented inside a root span."""
        argv = [*job.args, "--config", str(self.config), "--threads", "1",
                "--out", str(self.out)]
        self.out.unlink(missing_ok=True)
        gc.collect()
        try:
            if tracer is None:
                t0 = perf_counter()
                code = self.cli_main(argv)
                seconds = perf_counter() - t0
            else:
                with spans.instrument(tracer, self.workload.shell_depth):
                    with tracer.span(spans.ROOT_SPAN) as root:
                        code = self.cli_main(argv)
                seconds = root.duration
        except Exception:
            traceback.print_exc()
            code, seconds = None, float("nan")
        report = None
        if code is not None and self.out.is_file():
            report = json.loads(self.out.read_text())
        self.done.append((job, code, report))
        return seconds

    def check(self) -> list[bool]:
        """Whether each command run so far exited 0 and passed its check."""
        oks = []
        for job, code, report in self.done:
            problems = [f"exit code {code}"] if code != 0 else []
            if report is not None:
                problems += self.workload.check(job, report, self.reference)
            if problems:
                print(f"{' '.join(job.args)}: {'; '.join(problems)}",
                      file=sys.stderr)
            oks.append(not problems)
        self.failed = oks.count(False)
        return oks


def _end_to_end(runner: Runner, jobs, seconds: float) -> tuple[dict, dict]:
    """A fresh interpreter is started after each command, so the set-up
    times are spread over the whole run like the command times."""
    fresh_start()   # unmeasured: writes the bytecode caches
    runner.run(runner.workload.warmup or next(jobs))
    times, starts = [], []
    t0 = perf_counter()
    while perf_counter() - t0 < seconds:
        times.append(runner.run(next(jobs)))
        starts.append(fresh_start())
    while len(starts) < SETUP_STARTS:
        starts.append(fresh_start())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    passed = sum(runner.check()[1:])
    metrics = {"op_s.p50": spans.median_of(times),
               "ops_per_s": passed / sum(times), "peak_rss_mb": rss_mb,
               "setup_s": spans.median_of(starts, SETUP_STARTS)}
    return metrics, {"op_s": len(times), "setup_s": len(starts)}


def _per_layer(runner: Runner, jobs, seconds: float, seed: int
               ) -> tuple[dict, dict, list[str]]:
    job = next(jobs)
    runner.run(runner.workload.warmup or job)
    plain, traced, tracers = [], [], []
    t0 = perf_counter()
    while perf_counter() - t0 < seconds or len(tracers) < MIN_TRACED:
        plain.append(runner.run(job))
        tracer = spans.Tracer(len(tracers))
        traced.append(runner.run(job, tracer))
        tracers.append(tracer)
    runner.check()

    problems = []
    per_command = [spans.command_metrics(t.spans) for t in tracers]
    for k, (total, times, _) in enumerate(per_command):
        if abs(sum(times.values()) - total) > 1e-9 * max(1.0, total):
            problems.append(f"traced command {k}: self times sum to "
                            f"{sum(times.values())!r}, its span to {total!r}")
    counts = per_command[0][2]
    for k, (_, _, c) in enumerate(per_command[1:], start=1):
        if c != counts:
            problems.append(f"traced command {k} counted {c}, command 0 "
                            f"counted {counts}")

    metrics = {name: spans.median_of(times[name] for _, times, _ in per_command)
               for name in spans.TIME_METRICS.values()}
    metrics.update(counts)
    d_s, f_s = metrics["polylog.D.s"], metrics["psmeasure.F.s"]
    metrics["polylog.D.points_per_s"] = counts["polylog.D.points"] / d_s if d_s else 0.0
    metrics["psmeasure.F.pairs_per_s"] = counts["psmeasure.F.pairs"] / f_s if f_s else 0.0
    traced_p50 = spans.median_of(traced)
    metrics["trace.op_s.p50"] = traced_p50
    metrics["trace.overhead"] = traced_p50 / spans.median_of(plain) - 1.0

    trace_file = OUT / f"trace-{runner.workload.name}-seed{seed}.jsonl"
    with open(trace_file, "w", encoding="ascii") as f:
        for t in tracers:
            for i, s in enumerate(t.spans):
                f.write(json.dumps(s.as_dict(i)) + "\n")
    return metrics, {"untraced": len(plain), "traced": len(traced)}, problems


def per_layer_units() -> dict:
    units = dict.fromkeys(spans.TIME_METRICS.values(), "s")
    units.update(dict.fromkeys(spans.COUNT_METRICS, "count"))
    units["schottky.shells.bytes"] = "bytes"
    units.update({"polylog.D.points_per_s": "1/s",
                  "psmeasure.F.pairs_per_s": "1/s",
                  "trace.op_s.p50": "s", "trace.overhead": "ratio"})
    return units


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "kleinlog" / "__init__.py").is_file():
        print(f"perfbench: no kleinlog package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from kleinlog import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: kleinlog was imported from {cli.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    config = OUT / "std.json"
    config.write_text(json.dumps(workloads.std_spec()))
    workload = workloads.WORKLOADS[args.workload]
    runner = Runner(cli.main, workload, workload.reference(), config)
    jobs = workload.jobs(args.seed)
    problems = []
    if args.trace:
        metrics, samples, problems = _per_layer(runner, jobs, args.seconds,
                                                args.seed)
        units = per_layer_units()
    else:
        metrics, samples = _end_to_end(runner, jobs, args.seconds)
        units = E2E_UNITS
    for p in problems:
        print(p, file=sys.stderr)

    print(json.dumps({"workload": args.workload, "seconds": args.seconds,
                      "trace": args.trace, "samples": samples,
                      "environment": environment(args.seed)}))
    print(json.dumps({
        "correct": runner.failed == 0 and not problems,
        "attempted": len(runner.done),
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
