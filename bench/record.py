"""Record the expected outputs of every job for a range of seeds.

Usage, from the root of a checkout of the commit whose outputs are the
reference:

    python3 bench/record.py FIRST_SEED LAST_SEED

For each workload and seed it runs every job once, requires the run's own
checks to pass, and stores the inputs' digest and each job's exit code and
first 16 hex digits of its stdout sha256 in bench/expected.json.  Seeds
already in the file are kept.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads


def record(seed, workload):
    jobs = workloads.build(workload, seed)
    workdir = run.WORK / "record" / workload
    shutil.rmtree(workdir, ignore_errors=True)
    runner = run.Runner(jobs, workdir)
    outputs = {}
    for job, res in zip(jobs, runner.run_pass(0, traced=False)["results"]):
        problems = run.check(job, res, None)
        if problems:
            raise SystemExit(f"{workload} seed {seed} {job.name}: {problems}")
        outputs[job.name] = [res["exit"], run.sha(res["stdout"])[:16]]
    return {"inputs": run.inputs_digest(jobs), "outputs": outputs}


def write(expected):
    """One line per workload and seed, written atomically: a run reading the
    file meanwhile sees the old or the new version."""
    lines = []
    for workload in sorted(expected):
        seeds = sorted(expected[workload], key=int)
        body = ",\n".join(f"  {json.dumps(s)}: {json.dumps(expected[workload][s], sort_keys=True)}" for s in seeds)
        lines.append(f"{json.dumps(workload)}: {{\n{body}\n}}")
    tmp = run.EXPECTED.with_suffix(".tmp")
    tmp.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    os.replace(tmp, run.EXPECTED)


def main(argv):
    first, last = int(argv[0]), int(argv[1])
    expected = json.loads(run.EXPECTED.read_text()) if run.EXPECTED.exists() else {}
    for seed in range(first, last + 1):
        for workload in workloads.WORKLOADS:
            expected.setdefault(workload, {})[str(seed)] = record(seed, workload)
            print(f"recorded {workload} seed {seed}", flush=True)
        write(expected)
    shutil.rmtree(run.WORK / "record", ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
