"""Pipeline benchmark: one command for the three batch workloads.

Run from the repository root::

    python3 perfbench/run.py --workload ingest_clean --seed 7 --seconds 20 --trace 0

``--trace 0`` times the workload untraced and prints every end-to-end
metric.  ``--trace 1`` runs the job once untraced, then once more with
the layer wrappers installed, and prints every per-layer metric.  Each
run checks the program's outputs; the last line of standard output is
one JSON object (``correct``, ``attempted``, ``failed``, ``metrics``).
The exit code is 0 only when every check passed on a valid machine.

A job is a whole batch (a collection, or the report plus the query mix)
and always runs to completion; another one starts while less than
``--seconds`` of job time has been measured.  Rates are medians over
the jobs of the run.
"""

import time

START = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("ingest_clean", "ingest_chaos", "analyze_store")

#: Extra fresh interpreters that time set-up; with the run's own, the
#: reported ``setup_s`` is the median of three.
SETUP_PROBES = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="job time to measure (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_probe(workload, seed: int) -> float:
    """Set-up time of one fresh interpreter running this script."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload.name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def machine_identity(workload, args) -> dict:
    import numpy

    git_sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        git_sha = done.stdout.strip() if done.returncode == 0 else None
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "git_sha": git_sha,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": args.seed,
        "scale": workload.scale,
        "workers": workload.workers,
        "faults": workload.faults,
        "worker_faults": workload.worker_faults,
        "seconds": args.seconds,
        "trace": args.trace,
        "valid": nproc >= workload.workers,
    }


class Run:
    """One invocation: set-up, the jobs, their checks and the metrics."""

    def __init__(self, workload, args, work: Path):
        from perfbench.checks import Checks, Ledger

        self.workload = workload
        self.seed = args.seed
        self.args = args
        self.work = work
        self.checks = Checks()
        self.ledger = Ledger()
        self.jobs = []
        self.catalogs = 0
        self.store = None
        self.reference = None
        self.campaign = None
        self.setup_samples = []

    # -- set-up --------------------------------------------------------------

    def setup(self) -> float:
        from perfbench.workloads import collect, committed_store, make_campaign

        self.campaign = make_campaign(self.workload, self.seed)
        samples = self.setup_samples = [time.perf_counter() - START]
        samples += [setup_probe(self.workload, self.seed) for _ in range(SETUP_PROBES)]
        setup_s = statistics.median(samples)
        if self.workload.kind == "analyze":
            self.catalog = self.work / "catalog"
            start = time.perf_counter()
            collect(self.workload, self.campaign, self.catalog)
            setup_s += time.perf_counter() - start
            self.store = committed_store(self.catalog)
            if self.store is None:
                raise RuntimeError("set-up collection committed no store")
        return setup_s

    # -- jobs ----------------------------------------------------------------

    def prepare(self) -> None:
        """Every ingest job collects a campaign built for it alone."""
        from perfbench.workloads import make_campaign

        if self.campaign is None:
            self.campaign = make_campaign(self.workload, self.seed)

    def job(self, around=contextlib.nullcontext):
        """Run one timed job; ``around`` wraps exactly its timed part."""
        from perfbench.workloads import analyze_job, ingest_job

        if self.workload.kind == "analyze":
            return analyze_job(self.campaign, self.catalog, self.store, self.seed, around)
        self.prepare()
        self.catalogs += 1
        catalog = self.work / f"catalog-{self.catalogs}"
        try:
            return ingest_job(self.workload, self.campaign, catalog, around)
        finally:
            self.campaign = None

    def check(self, job) -> None:
        from perfbench.workloads import check_analyze, check_ingest, clean_reference

        if self.workload.kind == "analyze":
            failed = check_analyze(job, self.seed, self.checks)
        else:
            if self.workload.faults != "none" and self.reference is None:
                self.reference = clean_reference(self.workload, self.seed)
            failed = check_ingest(job, self.workload, self.seed, self.checks,
                                  self.reference)
            if job.store is not None:
                shutil.rmtree(job.store.parent, ignore_errors=True)
        self.ledger.record(job.operations, failed)
        self.jobs.append(job)

    def measure(self) -> None:
        measured = 0.0
        while True:
            job = self.job()
            self.check(job)
            measured += job.wall_s
            if measured >= self.args.seconds:
                return

    def traced(self) -> dict:
        """An untraced reference job, then the traced job; layer metrics."""
        from perfbench.layers import install
        from perfbench.metrics import layer_metrics
        from perfbench.selftime import attribute
        from perfbench.spans import Recorder, activate

        reference = self.job()
        if self.workload.kind == "ingest" and reference.store is not None:
            shutil.rmtree(reference.store.parent, ignore_errors=True)
        spool = self.work / "spool"
        spool.mkdir()
        recorder = Recorder(spool_dir=str(spool))
        self.prepare()
        patches = install(recorder)
        activate(recorder)
        try:
            job = self.job(around=recorder.root)
        finally:
            activate(None)
            patches.restore()
        committed = (job.samples, job.store_bytes) if self.workload.kind == "ingest" else (0, 0)
        self.check(job)
        attr = attribute(recorder.records())
        worst = max((abs(r) for r in attr.residuals.values()), default=0.0)
        self.checks.add("trace_identity", worst < 1e-6,
                        f"{len(attr.residuals)} threads, worst residual {worst:.2e} s")
        return layer_metrics(attr, job.counters, job.outputs, *committed,
                             overhead_share=job.wall_s / reference.wall_s - 1.0)

    # -- results -------------------------------------------------------------

    def end_to_end(self, setup_s: float) -> dict:
        median = statistics.median
        return {
            "setup_s": setup_s,
            "samples_per_s": median(job.samples_per_s for job in self.jobs),
            "cpu_s_per_msample": median(job.cpu_s_per_msample for job in self.jobs),
            "store_bytes_per_sample": median(job.bytes_per_sample for job in self.jobs),
            "peak_rss_mb": max(job.peak_rss_mb for job in self.jobs),
        }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import spec
    from perfbench.workloads import WORKLOADS, make_campaign

    workload = WORKLOADS[args.workload]
    if args.seconds is None:
        args.seconds = float(spec.RUN_SECONDS)
    if args.setup_probe:
        make_campaign(workload, args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - START}))
        return 0
    work = ROOT / ".perfbench" / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(workload, args, work)
    try:
        setup_s = run.setup()
        if args.trace:
            metrics = run.traced()
            table = spec.PER_LAYER
        else:
            run.measure()
            metrics = run.end_to_end(setup_s)
            table = spec.END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    identity = machine_identity(workload, args)
    correct = run.checks.passed and identity["valid"]
    units = {metric.name: metric.unit for metric in table}
    result = {
        "correct": correct,
        "attempted": run.ledger.attempted,
        "failed": run.ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print_summary(workload, identity, run, metrics, units, result)
    print(json.dumps(result))
    return 0 if correct else 1


def print_summary(workload, identity, run, metrics, units, result) -> None:
    """Human-readable lines before the result, and a record file."""
    print(f"perfbench {workload.name}: seed {identity['seed']}, scale {workload.scale}, "
          f"workers {workload.workers}, faults {workload.faults}, "
          f"worker faults {workload.worker_faults}, trace {identity['trace']}")
    print("machine " + json.dumps(identity, sort_keys=True))
    if not identity["valid"]:
        print(f"INVALID: {identity['nproc']} cores for {workload.workers} workers")
    for number, job in enumerate(run.jobs, 1):
        phases = "".join(f", {name} {value:.3f} s" for name, value in job.phases.items())
        print(f"job {number}: wall {job.wall_s:.3f} s, cpu {job.cpu_s:.3f} s, "
              f"{job.samples} samples{phases}")
    print("setup samples: " + ", ".join(f"{s:.3f} s" for s in run.setup_samples))
    for check in run.checks.items:
        print(f"check {check.name}: {check.status} {check.detail}".rstrip())
    print(f"operations: {run.ledger.failed} of {run.ledger.attempted} failed, "
          f"ops_failed_share {run.ledger.failed_share:.4f} ratio")
    for name, unit in units.items():
        print(f"metric {name} = {metrics[name]:.6g} {unit}")
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    record = {
        "workload": workload.name,
        "identity": identity,
        "setup_samples_s": run.setup_samples,
        "jobs": [{"wall_s": j.wall_s, "cpu_s": j.cpu_s, "samples": j.samples,
                  "store_bytes": j.store_bytes, **j.phases} for j in run.jobs],
        "checks": [vars(check) for check in run.checks.items],
        "ops_failed_share": run.ledger.failed_share,
        "result": result,
    }
    path = results / f"{workload.name}-seed{identity['seed']}-trace{identity['trace']}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    sys.exit(main())
