"""Benchmark of the kellerlab CLI: seeded workloads, one job at a time.

Usage, from the root of a checkout:

    python3 bench/run.py --workload invert-q --seed 1 --seconds 30 --trace 0

Every job is one ``python -m kellerlab.cli ...`` process with ``src`` on
PYTHONPATH (closed loop, one client).  The run generates the workload's map
files from the seed, times ``kellerlab --version`` to get the set-up time,
then runs passes over the job list until ``--seconds`` is spent (at least
one).  Every job's exit code, stdout and stderr are checked.  With
``--trace 1`` it runs one plain pass and one pass under ``tracehook.py`` and
reports the per-layer metrics instead.  The last stdout line is the JSON
result; the lines above it name each metric with its unit.  README.md says
why the workloads are what they are and how times are scaled.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import stats
import tracehook
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
EXPECTED = BENCH / "expected.json"

SETUP_PROCESSES = 11  # `kellerlab --version` processes timed per run
JOB_LIMIT_S = 30.0  # a job running longer is killed and counts as failed
RUN_DEADLINE_S = 140.0  # no job starts after this; the run must end in 180 s
# Median duration of reference_loop on the 2-CPU x86-64 machine the bounds
# were set on; every time is scaled to that machine speed.
REFERENCE_NOMINAL_S = 0.033
REFERENCE_EVERY_S = 0.5  # at most this long between two reference samples
REFERENCE_WINDOW = 3  # a process is scaled by the median of this many latest samples

# metrics the harness measures itself rather than reading from spans
HARNESS_LAYER_METRICS = ("cli.stdout_bytes", "cli.import_s", "trace.overhead_frac")


def reference_loop():
    """Duration of a fixed pure-Python loop of Fraction sums into a dict with
    tuple keys, the kind of work the program's polynomial kernel does."""
    start = time.perf_counter()
    acc = {}
    for i in range(1500):
        for j in range(6):
            key = (i % 37, j, (i * j) % 11)
            acc[key] = acc.get(key, Fraction(0)) + Fraction(i * 7 + j, 3 + j)
    return time.perf_counter() - start


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def inputs_digest(jobs) -> str:
    """One hash over every job's argv and the sha256 of each input file."""
    h = hashlib.sha256()
    for job in jobs:
        h.update("\0".join(job.argv).encode() + b"\n")
        for name in sorted(job.files):
            h.update(f"{name} {sha(job.files[name])}\n".encode())
    return h.hexdigest()


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("KELLERLAB_BUDGET", None)  # the CLI reads it; keep outputs fixed
    return env


def spawn(cmd, cwd, out_path, err_path, env):
    """Run one process to completion; return (wall s, exit code, max RSS in
    KiB of that child alone, killed for running too long)."""
    lock = threading.Lock()
    state = {"done": False, "killed": False}
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)

        def kill():
            with lock:
                if not state["done"]:
                    state["killed"] = True
                    proc.kill()

        timer = threading.Timer(JOB_LIMIT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            with lock:
                state["done"] = True
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss, state["killed"]


class Runner:
    """Writes a workload's inputs and runs its processes one at a time.

    Between processes, at least every REFERENCE_EVERY_S, it times
    ``reference_loop``; each process's wall time is divided by the machine's
    speed just before it ran, the median of the last REFERENCE_WINDOW samples
    over REFERENCE_NOMINAL_S.  The machine's speed drifts by tens of percent
    within a minute when other tenants load it; the scaling halves the
    run-to-run spread (README.md).
    """

    def __init__(self, jobs, workdir):
        self.jobs = jobs
        self.indir = workdir / "in"
        self.outdir = workdir / "out"
        self.env = cli_env()
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.references = []
        self.speeds = []
        self.last_reference = None
        for d in (self.indir, self.outdir):
            d.mkdir(parents=True)
        for job in jobs:
            for name, data in job.files.items():
                (self.indir / name).write_bytes(data)

    def spawn(self, cmd, stem, sample=False):
        """Run one process; return (wall s at nominal speed, raw wall s, exit
        code, max RSS KiB, killed).  ``sample`` forces a reference sample."""
        now = time.perf_counter()
        if sample or self.last_reference is None or now - self.last_reference >= REFERENCE_EVERY_S:
            self.references.append(reference_loop())
            self.last_reference = time.perf_counter()
        speed = statistics.median(self.references[-REFERENCE_WINDOW:]) / REFERENCE_NOMINAL_S
        self.speeds.append(speed)
        wall, code, rss, killed = spawn(cmd, self.indir, f"{stem}.out", f"{stem}.err", self.env)
        return wall / speed, wall, code, rss, killed

    def probe(self, args, label, count):
        """Scaled wall times of ``count`` processes that do no math; each is
        preceded by its own reference sample, because they are short."""
        times = []
        for k in range(count):
            stem = self.outdir / f"{label}{k}"
            wall, _, code, _, _ = self.spawn([sys.executable, *args], stem, sample=True)
            if code != 0:
                raise RuntimeError(f"{' '.join(args)} exited {code}: {Path(f'{stem}.err').read_text()[:300]}")
            times.append(wall)
        return times

    def run_pass(self, index, traced):
        """Run every job once.  The pass time is the sum of the jobs' scaled
        wall times: reference samples and output checks between jobs are not
        in it.  ``clock`` is the pass's unscaled duration, overhead included."""
        results = []
        start = time.perf_counter()
        for j, job in enumerate(self.jobs):
            stem = self.outdir / f"p{index}-{j:02d}"
            if time.perf_counter() > self.deadline:
                results.append(None)
                continue
            if traced:
                cmd = [sys.executable, str(BENCH / "tracehook.py"), f"{stem}.spans", *job.argv]
            else:
                cmd = [sys.executable, "-m", "kellerlab.cli", *job.argv]
            wall, raw, code, rss, killed = self.spawn(cmd, stem)
            results.append(
                {"wall": wall, "raw": raw, "exit": code, "rss_kib": rss, "timed_out": killed, "stem": stem}
            )
        elapsed = sum(r["wall"] for r in results if r is not None)
        for res in results:
            if res is not None:
                res["stdout"] = Path(f"{res['stem']}.out").read_bytes()
                res["stderr"] = Path(f"{res['stem']}.err").read_bytes()
        return {"elapsed": elapsed, "clock": time.perf_counter() - start, "results": results, "traced": traced}


def _one_json_line(data: bytes):
    lines = data.decode(errors="replace").split("\n")
    if len(lines) != 2 or lines[1] != "":
        return None
    try:
        return json.loads(lines[0])
    except json.JSONDecodeError:
        return None


def check(job, res, recorded):
    """Problems with one job execution; an empty list means it is correct."""
    if res is None:
        return ["not run: the run's deadline passed"]
    if res["timed_out"]:
        return [f"killed after {JOB_LIMIT_S} s"]
    problems = []
    out, err = res["stdout"], res["stderr"]
    if res["exit"] != job.exit_code:
        problems.append(f"exit {res['exit']}, expected {job.exit_code}: {err[:200]!r}")
    elif job.exit_code == 0:
        report = _one_json_line(out)
        if report is None or err:
            problems.append("expected one JSON line on stdout and empty stderr")
        elif job.argv[0] == "druzkowski":
            if set(report) != {"field", "nvars", "polys"}:
                problems.append("druzkowski output is not a map file")
        elif report.get("command") != job.argv[0]:
            problems.append(f"report command {report.get('command')!r}")
        for key, value in job.facts.items():
            if report is not None and report.get(key) != value:
                problems.append(f"{key} = {report.get(key)!r}, expected {value!r}")
    else:
        error = _one_json_line(err)
        if out or error is None:
            problems.append("expected empty stdout and one JSON line on stderr")
        elif error.get("error") != job.error:
            problems.append(f"error kind {error.get('error')!r}, expected {job.error!r}")
    if recorded is not None and [res["exit"], sha(out)[:16]] != recorded:
        problems.append(f"exit code and stdout sha256 differ from the recorded {recorded}")
    return problems


def recorded_for(workload, seed):
    if not EXPECTED.exists():
        return None
    return json.loads(EXPECTED.read_text()).get(workload, {}).get(str(seed))


def git_revision():
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def end_to_end(passes, setup, jobs, lines):
    """End-to-end metrics of the plain passes, in seconds at nominal speed."""
    plain = [p for p in passes if not p["traced"]]
    per_job = []
    for j in range(len(jobs)):
        walls = [p["results"][j]["wall"] for p in plain if p["results"][j] is not None]
        if walls:
            per_job.append(statistics.median(walls))
    ran = [r for p in plain for r in p["results"] if r is not None]
    metrics = {
        "setup_s": statistics.median(setup),
        "total_s": statistics.median(p["elapsed"] for p in plain),
        "job_p50_s": statistics.median(per_job),
        "peak_rss_mb": max(r["rss_kib"] for r in ran) / 1024,
    }
    lines.append(f"setup_s      {metrics['setup_s']:.4f} s      median of {len(setup)} `kellerlab --version` processes")
    lines.append(f"total_s      {metrics['total_s']:.4f} s      median wall time of {len(plain)} passes over {len(jobs)} jobs")
    lines.append(f"job_p50_s    {metrics['job_p50_s']:.4f} s      median over jobs of each job's median wall time")
    tail = stats.tail(per_job)
    if tail is None:
        lines.append(f"job_tail_s   undefined  fewer than {2 * stats.TAIL_BEYOND} jobs")
    else:
        metrics["job_tail_s"] = tail[1]
        lines.append(f"job_tail_s   {tail[1]:.4f} s      p{tail[0]:.1f} of {len(per_job)} jobs, {stats.TAIL_BEYOND} beyond it")
    lines.append(f"peak_rss_mb  {metrics['peak_rss_mb']:.2f} MB     largest max-RSS of one job process")
    return metrics


def per_layer(passes, setup, bare, names, units):
    """Per-layer metrics of the traced pass; times in seconds at nominal
    speed, span times scaled by the pass's median speed."""
    plain = next(p for p in passes if not p["traced"])
    traced = next(p for p in passes if p["traced"])
    spans = []
    for res in traced["results"]:
        path = Path(f"{res['stem']}.spans") if res is not None else None
        if path is not None and path.exists():
            spans.append(stats.layer_totals(json.loads(path.read_text())))
    span_metrics = [n for n in names if n not in HARNESS_LAYER_METRICS]
    metrics = stats.layer_metrics(stats.merge(spans), span_metrics, tracehook.TARGETS)
    speed = statistics.median(r["raw"] / r["wall"] for r in traced["results"] if r is not None)
    metrics = {n: v / speed if units[n] == "s" else v for n, v in metrics.items()}
    metrics["cli.stdout_bytes"] = float(sum(len(r["stdout"]) for r in traced["results"] if r is not None))
    metrics["cli.import_s"] = statistics.median(setup) - statistics.median(bare)
    metrics["trace.overhead_frac"] = traced["elapsed"] / plain["elapsed"] - 1
    return {n: metrics[n] for n in names}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "kellerlab" / "cli.py").is_file():
        print(f"error: no kellerlab source under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    load = os.getloadavg()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in config["end_to_end"] + config["per_layer"]}
    jobs_per_workload = {w: len(workloads.build(w, args.seed)) for w in workloads.WORKLOADS}
    jobs = workloads.build(args.workload, args.seed)
    record = recorded_for(args.workload, args.seed)
    problems = []
    if record is not None and record["inputs"] != inputs_digest(jobs):
        problems.append("generated inputs differ from the recorded ones: the generator changed")

    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    runner = Runner(jobs, workdir)
    run_start = time.perf_counter()
    setup = runner.probe(["-m", "kellerlab.cli", "--version"], "version", SETUP_PROCESSES)
    passes = []
    if args.trace:
        bare = runner.probe(["-c", "pass"], "bare", SETUP_PROCESSES)
        passes.append(runner.run_pass(0, traced=False))
        passes.append(runner.run_pass(1, traced=True))
    else:
        while True:
            passes.append(runner.run_pass(len(passes), traced=False))
            spent = time.perf_counter() - run_start
            if spent + passes[-1]["clock"] > args.seconds or time.perf_counter() > runner.deadline:
                break

    attempted = failed = 0
    first_stdout = {}
    for p in passes:
        for job, res in zip(jobs, p["results"]):
            recorded = record["outputs"].get(job.name) if record else None
            found = check(job, res, recorded)
            if res is not None and res["stdout"] != first_stdout.setdefault(job.name, res["stdout"]):
                found.append("stdout differs from this job's first run" + (" (traced)" if p["traced"] else ""))
            attempted += 1
            if found:
                failed += 1
                problems.extend(f"{job.name} {' '.join(job.argv)}: {msg}" for msg in found)

    speed = statistics.median(runner.speeds)
    lines = [
        f"workload {args.workload}  seed {args.seed}  jobs {len(jobs)}  passes {len(passes)}  trace {args.trace}",
        f"machine      {speed:.3f} x nominal time of the reference loop (median over the run, from"
        f" {len(runner.references)} samples); every time below is divided by the speed when it was taken",
    ]
    if args.trace:
        names = [m["name"] for m in config["per_layer"]]
        metrics = per_layer(passes, setup, bare, names, units)
        lines.extend(f"{name:44s} {metrics[name]:.6g} {units[name]}" for name in names)
    else:
        metrics = end_to_end(passes, setup, jobs, lines)
        metrics = {m["name"]: metrics[m["name"]] for m in config["end_to_end"]}
    lines.append(f"failed_frac  {failed / attempted:.4f} ratio  {failed} of {attempted} job runs")
    lines.append(
        "stdout checked against the sha256 recorded on the seed commit"
        if record
        else f"seed {args.seed} has no recorded stdout: checked exit codes, known facts and repeatability"
    )
    lines.extend(f"FAILED {p}" for p in problems)
    environment = {
        "python": sys.version.split()[0],
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "loadavg_at_start": load,
        "jobs_per_workload": jobs_per_workload,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "clients": 1,
        "speed_factor": speed,
    }
    lines.append(json.dumps({"environment": environment}, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    lines.append(json.dumps(result))
    print("\n".join(lines))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
