"""Benchmark of the blockfriends package, run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-pg24 --seed 1 --seconds 60 --trace 0

It imports the package from ./src, builds the workload's seeded inputs
(set-up, repeated and timed), then runs passes over the workload's
operations, two at least, until the next pass would end after --seconds.
Every operation is checked against expected.json.  The last line of stdout
is one JSON object with keys correct, attempted, failed and metrics; the
line before it records the environment.

--trace 0 reports the end-to-end metrics of untraced passes.  --trace 1 runs
one untraced pass, then wraps the package's public functions (spans.py) and
reports per-layer metrics from traced passes, with the traced over untraced
wall time as trace.overhead_ratio.  Scratch files go under
.perfbench-work/ and are removed at exit, except the last run's spans and
the exact counts that later runs in the same checkout must repeat.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import sys
import tempfile
import threading
from pathlib import Path
from statistics import median
from time import perf_counter

from spans import EXACT, PACKAGE, SpanSet, Tracer, layer_metrics, median_metrics, unit
from workloads import WORKLOADS, Pass, import_package

SETUP_REPS = 25
WORK = ".perfbench-work"


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_passes(workload, expected, threads, workdir, deadline, tracer=None,
               min_passes=1, max_passes=None):
    """At least `min_passes` passes, then more until the next one, if it took as
    long as the last, would end after `deadline`."""
    passes = []
    while True:
        passdir = Path(tempfile.mkdtemp(dir=workdir))
        t0 = perf_counter()
        p = Pass(expected, threads)
        workload.run(p, passdir)
        if tracer is not None:
            p.spans = tracer.take()
        shutil.rmtree(passdir)
        gc.collect()
        passes.append(p)
        if len(passes) == max_passes or (
                len(passes) >= min_passes and perf_counter() + (perf_counter() - t0) > deadline):
            return passes


def check_exact(record: Path, counts: dict) -> bool:
    """The counts must equal those of the first traced pass in this checkout."""
    counts = json.loads(json.dumps(counts))
    if record.is_file():
        return json.loads(record.read_text()) == counts
    record.write_text(json.dumps(counts, indent=1, sort_keys=True))
    return True


def dump_spans(path: Path, spans, env: dict) -> None:
    index = {id(s): i for i, s in enumerate(spans)}
    rows = [{"name": s.name, "start": s.start, "end": s.end, "cpu": s.cpu,
             "thread": s.thread, "parent": index.get(id(s.parent)), **s.info}
            for s in spans]
    path.write_text(json.dumps({"env": env, "spans": rows}))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        print(f"error: no package at {src / PACKAGE}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy  # a dependency: loaded once, outside the timed set-up

    expected = json.loads(Path(__file__).with_name("expected.json").read_text())
    expected = expected[args.workload]
    workload = WORKLOADS[args.workload]()
    threads = len(os.sched_getaffinity(0))
    (root / WORK).mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / WORK))
    try:
        setups = []
        for _ in range(SETUP_REPS):
            t0 = perf_counter()
            bf = import_package(src)
            workload.setup(bf, workdir, random.Random(args.seed))
            setups.append(perf_counter() - t0)

        start = perf_counter()
        deadline = start + args.seconds
        if not args.trace:
            # two passes at least, so that peak RSS, the maximum over all passes,
            # does not depend on how many passes fit in the run
            passes = run_passes(workload, expected, threads, workdir, deadline, min_passes=2)
            traced = []
        else:
            passes = run_passes(workload, expected, threads, workdir, deadline, max_passes=1)
            tracer = Tracer()
            tracer.install()
            workload.setup(bf, workdir, random.Random(args.seed))
            setup_spans = tracer.take()
            traced = run_passes(workload, expected, threads, workdir, deadline, tracer)
            tracer.uninstall()
        elapsed = perf_counter() - start

        env = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "nproc": threads, "cpu": cpu_model(), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": git_commit(root),
            "library_threads": threads, "passes": len(passes) + len(traced),
            "elapsed_s": elapsed,
        }
        all_passes = passes + traced
        attempted = sum(p.attempted for p in all_passes)
        failed = sum(p.failed for p in all_passes)
        wall = median(p.wall for p in passes)
        print(f"{args.workload} seed {args.seed}: {len(passes)} untraced and "
              f"{len(traced)} traced passes in {elapsed:.1f} s, {threads} library threads")
        print("pass wall times (s): " + " ".join(f"{p.wall:.3f}" for p in all_passes))
        if not args.trace:
            metrics = {
                "wall_s": (wall, "s"),
                "subsets_per_s": (workload.subsets_per_pass / wall, "1/s"),
                "setup_s": (median(setups), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                * 1024 / 1e6, "MB"),
            }
        else:
            layers = [layer_metrics(p.spans) for p in traced]
            for layer in layers:
                attempted += 1
                if not check_exact(root / WORK / f"counts-{args.workload}.json",
                                   {k: layer[k] for k in EXACT}):
                    failed += 1
                    print("exact counts differ from an earlier traced pass", file=sys.stderr)
            env["library_threads_seen"] = len(
                {s.thread for p in traced for s in p.spans} - {threading.get_ident()})
            values = median_metrics(layers)
            values["planes.projective_plane.s"] = SpanSet(setup_spans).seconds(
                "planes.projective_plane")
            values["trace.overhead_ratio"] = median(p.wall for p in traced) / wall
            metrics = {name: (value, unit(name)) for name, value in values.items()}
            dump_spans(root / WORK / f"spans-{args.workload}.json", traced[-1].spans, env)
        print(f"fail_ratio {failed / attempted} ratio ({failed} of {attempted} operations)")
        for name, (value, u) in metrics.items():
            print(f"{name} {value} {u}")
        print(json.dumps({"env": env}))
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
