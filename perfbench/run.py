"""Benchmark of the roomflow experiment CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --verify [--seed N]

A run imports roomflow from `src/` next to this directory, writes the
workload's inputs from the seed, runs one untimed warm-up repetition of the
workload's `roomflow.cli.main(argv)` call and then repeats it for the given
seconds. Each repetition is one operation; it fails if the call does not
return 0 or its result files differ from the first repetition's. The
output checks of `workloads` then run once, and each failed check is one
more failed operation. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are work_per_s, best_wall_s, peak_rss_mib and
setup_s (the fastest of SETUP_IMPORTS fresh-interpreter imports made
between repetitions). With --trace 1 the first half of the time runs
untraced and the second half with every layer function wrapped in spans;
the metrics are the per-layer figures of the fastest traced repetition, and
trace.overhead_s is its wall time minus the fastest untraced one. The
per-layer figures and the per-span table also go to
perfbench/out/<workload>/trace.json.

--verify runs each workload three times, each in a fresh interpreter (two
serial runs under different hash seeds, one with --jobs 2), prints the
SHA-256 fingerprint of every result file and compares the runs with each
other and with the reference fingerprints listed in README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import re
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
README = HERE / "README.md"

DEFAULT_SEED = 20240401
SETUP_IMPORTS = 10
MIN_REPS = 3

IMPORT_CODE = ("import time; t = time.perf_counter(); import roomflow.cli; "
               "print(time.perf_counter() - t)")


def import_program():
    """roomflow.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "roomflow" / "cli.py").is_file():
        sys.exit(f"perfbench: no roomflow source under {SRC}")
    sys.path.insert(0, str(SRC))
    import roomflow.cli

    if Path(roomflow.cli.__file__).resolve().parent != SRC / "roomflow":
        sys.exit(f"perfbench: imported roomflow from {roomflow.cli.__file__}")
    return roomflow.cli


def program_env(**extra):
    return dict(os.environ, PYTHONPATH=str(SRC), **extra)


def import_seconds():
    """Time to import roomflow.cli in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_CODE],
                          env=program_env(), cwd=ROOT, check=True,
                          capture_output=True, text=True, timeout=60)
    return float(proc.stdout)


class SetupTimer:
    """SETUP_IMPORTS fresh-interpreter imports spread evenly over a run.

    Interference on a shared host only adds time and comes in phases of
    several seconds, so the fastest import of a spread-out sample is the
    steady figure."""

    def __init__(self, seconds):
        start = time.perf_counter()
        self.due = [start + i * seconds / SETUP_IMPORTS
                    for i in range(SETUP_IMPORTS)]
        self.times = []

    def between_reps(self):
        if self.due and time.perf_counter() >= self.due[0]:
            self.due.pop(0)
            self.times.append(import_seconds())

    def fastest(self):
        while self.due:
            self.due.pop(0)
            self.times.append(import_seconds())
        return min(self.times)


def fingerprint(path):
    """SHA-256 of a result file without its `# generated` line and its
    runtime_s column, the parts that legitimately change between runs."""
    h = hashlib.sha256()
    drop = None
    with open(path, encoding="utf-8", newline="") as fh:
        for line in fh:
            if line.startswith("# generated"):
                continue
            if not line.startswith("#"):
                fields = line.rstrip("\n").split(",")
                if drop is None and "runtime_s" in fields:
                    drop = fields.index("runtime_s")
                if drop is not None:
                    del fields[drop]
                    line = ",".join(fields) + "\n"
            h.update(line.encode())
    return h.hexdigest()


def fingerprints(workload):
    return {p.name: fingerprint(p) if p.is_file() else None
            for p in workload.result_paths()}


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Repetitions:
    """Times whole repetitions of one workload and counts failed ones."""

    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.reference = None
        self.attempted = 0
        self.failed = 0

    def once(self):
        """Wall time of one repetition; None if it failed."""
        gc.collect()
        self.attempted += 1
        start = time.perf_counter()
        try:
            code = self.cli.main(list(self.workload.argv))
        except Exception:  # a raw traceback is a failed operation
            traceback.print_exc()
            code = None
        wall = time.perf_counter() - start
        prints = fingerprints(self.workload)
        if self.reference is None:
            self.reference = prints
        if code != 0 or prints != self.reference:
            self.failed += 1
            print(f"repetition {self.attempted} failed: exit {code}",
                  file=sys.stderr)
            return None
        return wall

    def timed(self, seconds, before=None, after=None):
        """Repeat for `seconds` (at least MIN_REPS times); the wall times
        of the successful repetitions. before/after run around each
        repetition outside the timed call's own clock."""
        walls = []
        deadline = time.perf_counter() + seconds
        n = 0
        while n < MIN_REPS or time.perf_counter() < deadline:
            if before:
                before()
            wall = self.once()
            if after:
                after(wall)
            if wall is not None:
                walls.append(wall)
            n += 1
        return walls


def metric(value, unit):
    return {"value": value, "unit": unit}


def run(args):
    cli = import_program()
    outdir = OUT / args.workload
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](outdir, args.seed)
    reps = Repetitions(cli, workload)

    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        reps.once()  # warm-up: lazy imports, caches, first file writes
        if args.trace:
            metrics = traced_metrics(reps, args.seconds, outdir)
        else:
            setup = SetupTimer(args.seconds)
            walls = reps.timed(args.seconds, before=setup.between_reps)
            rss = peak_rss_mib()

    results = workload.check()
    for c in results:
        print(f"check {c.name}: {'ok' if c.ok else 'FAILED'} ({c.detail})")
    for name, digest in fingerprints(workload).items():
        print(f"fingerprint {workload.name} {name} {digest}")

    if not args.trace:
        best = min(walls) if walls else float("nan")
        work = workload.work()
        print(f"repetitions {len(walls)}, {work} {workload.unit} each")
        metrics = {"work_per_s": metric(work / best, "work/s"),
                   "best_wall_s": metric(best, "s"),
                   "peak_rss_mib": metric(rss, "MiB"),
                   "setup_s": metric(setup.fastest(), "s")}
    failed_checks = sum(not c.ok for c in results)
    print(json.dumps({
        "correct": failed_checks == 0 and reps.failed == 0,
        "attempted": reps.attempted + len(results),
        "failed": reps.failed + failed_checks,
        "metrics": metrics}))
    return 0


def traced_metrics(reps, seconds, outdir):
    import roomflow

    modules = {layer: getattr(roomflow, layer) for layer in spans.LAYERS}
    untraced = reps.timed(seconds / 2.0)
    tracer = spans.Tracer(modules)
    best = {"wall": float("inf"), "spans": [], "counts": {}}
    counts = []

    def keep(wall):
        counts.append(dict(tracer.counts, spans=len(tracer.spans)))
        if wall is not None and wall < best["wall"]:
            best.update(wall=wall, spans=tracer.spans, counts=tracer.counts)

    tracer.install()
    try:
        traced = reps.timed(seconds / 2.0, before=tracer.reset, after=keep)
    finally:
        tracer.uninstall()
    values, stats = tracer.metrics(best["spans"], best["counts"])
    fastest = {"untraced": min(untraced, default=float("nan")),
               "traced": min(traced, default=float("nan"))}
    values["trace.overhead_s"] = fastest["traced"] - fastest["untraced"]
    report = {
        "best_untraced_wall_s": fastest["untraced"],
        "best_traced_wall_s": fastest["traced"],
        "traced_repetitions": len(traced),
        "counts_repeat_exactly": all(c == counts[0] for c in counts),
        "absent": tracer.absent(),
        "metrics": values,
        "spans": {name: {"calls": c, "self_s": s, "layer_s": lay}
                  for name, (c, s, lay) in sorted(stats.items())},
    }
    with open(outdir / "trace.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    for name in report["absent"]:
        print(f"absent: {name}", file=sys.stderr)
    return {name: metric(values[name], unit)
            for name, (unit, _, _) in spans.TABLE.items()}


# ---------------------------------------------------------------------------
# fingerprint verification

def reference_fingerprints():
    """(workload, file) -> digest from the README's reference block."""
    pattern = re.compile(r"^(\S+)\s+(\S+)\s+([0-9a-f]{64})$")
    with open(README, encoding="utf-8") as fh:
        return {(m[1], m[2]): m[3] for m in map(pattern.match, fh) if m}


def fresh_run(workload, argv, hash_seed):
    subprocess.run([sys.executable, "-m", "roomflow.cli", *argv],
                   env=program_env(PYTHONHASHSEED=str(hash_seed)), cwd=ROOT,
                   check=True, stdout=subprocess.DEVNULL, timeout=170)
    return fingerprints(workload)


def verify(seed):
    import_program()
    reference = reference_fingerprints() if seed == DEFAULT_SEED else {}
    ok = True
    for name, cls in WORKLOADS.items():
        outdir = OUT / "verify" / name
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir(parents=True)
        workload = cls(outdir, seed)
        argv = list(workload.argv)
        jobs2 = argv[:argv.index("--jobs")] + ["--jobs", "2"]
        first = fresh_run(workload, argv, 0)
        second = fresh_run(workload, argv, 1)
        parallel = fresh_run(workload, jobs2, 0)
        for fname, digest in first.items():
            notes = []
            if second[fname] != digest:
                notes.append("DIFFERS on a second serial run")
            if parallel[fname] != digest:
                notes.append("DIFFERS with --jobs 2")
            ok &= not notes
            ref = reference.get((name, fname))
            if ref is not None and ref != digest:
                notes.append("changed from the README reference")
            print(f"{name} {fname} {digest}"
                  + (f"  # {'; '.join(notes)}" if notes else ""))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--verify", action="store_true",
                        help="check output fingerprints instead of timing")
    args = parser.parse_args(argv)
    if args.verify:
        return verify(args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
