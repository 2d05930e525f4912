"""dgares benchmark: seeded closed-loop workloads with verified results.

    python3 perfbench/run.py --workload resolve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One client, one process, no threads: each job (one ideal or one cone
complex taken to a verified result) starts when the previous job and its
reference checks are done.  Each job and each set-up is timed on its own
and scaled to a reference machine speed measured around it; reference
checks and bookkeeping run between jobs, untimed.  Work comes in rounds
of the workload's fixed mix, and the loop stops at the first round
boundary after --seconds of job time.

--trace 0 prints the end-to-end metrics; --trace 1 runs every round
twice, untraced and traced, and prints per-layer calls, busy and self
time per round, the counters, and the tracing overhead.  The last line
of standard output is one JSON object; the full result with the
environment, every job's record and the spans goes to
perfbench/results/.  See perfbench/NOTES.md.
"""

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SRC = HERE.parent / "src"
LAYERS = (
    "ioformats", "complexes", "minimize", "multiplication", "solve",
    "homotopy", "structure", "morse", "betti", "lattices", "ideals",
)

# Every span name a job can open, so a traced run reports zero calls for
# a layer that its workload does not reach.
SPAN_NAMES = (
    "ioformats.parse", "ioformats.to_json",
    "complexes.taylor_complex", "complexes.is_resolution", "complexes.is_minimal",
    "minimize.minimize", "minimize.cancel_pairs", "minimize.transfer_verify",
    "betti.betti_from_complex",
    "multiplication.taylor_multiplication", "multiplication.transfer_multiplication",
    "multiplication.check_dga_axioms.leibniz", "multiplication.check_dga_axioms.full",
    "solve.leibniz_solution_space", "solve.forced_products",
    "homotopy.contracting_homotopy", "homotopy.verify", "homotopy.laurent_dga",
    "structure.supportive_multiplication", "structure.hilbert_cone_check",
    "morse.ideal_from_cone_complex", "morse.cone_morse_matching",
    "morse.verify_morse_matching", "morse.dga_ideal_check",
)
COUNT_NAMES = (
    "complexes.taylor_basis", "complexes.is_resolution.degrees",
    "minimize.cancellations", "minimize.cancel_pairs.pairs",
    "solve.strands", "solve.distinct_strands", "solve.space_dim",
    "multiplication.pairs_checked", "multiplication.triples_scanned",
    "multiplication.triples_in_range",
)

# Reported times are measured times scaled to the speed at which the
# calibration loop below takes CAL_REF_S seconds.  See "Machine speed"
# in NOTES.md.
CAL_REF_S = 0.02
CAL_WINDOW = 10


def load_library():
    """Import every dgares layer afresh."""
    for name in [m for m in sys.modules if m == "dgares" or m.startswith("dgares.")]:
        del sys.modules[name]
    return SimpleNamespace(**{
        name: importlib.import_module("dgares." + name) for name in LAYERS
    })


def calibration():
    """Seconds taken by a fixed exact-arithmetic loop that shares no code
    with dgares; its time tracks the machine's momentary speed."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 6001):
        total += Fraction(1, i % 97 + 1)
    return time.perf_counter() - start


def environment(seed, workload):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload, "seed": seed, "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu, "python": platform.python_version(),
    }


class Run:
    """Closed-loop execution of rounds, with checks between jobs.

    Every timed region (a job or a set-up) sits between two runs of the
    calibration loop; its speed scale is CAL_REF_S over the median of the
    CAL_WINDOW calibrations around it."""

    def __init__(self, workload):
        self.workload = workload
        self.lib = None
        self.calibrations = []
        self.job_samples = []  # (kind, seconds, calibration index), untraced passes
        self.traced_samples = []  # (seconds, calibration index), traced passes
        self.setup_samples = []  # (seconds, calibration index)
        self.round_kinds = None
        self.records = []
        self.attempted = 0
        self.failed = 0
        self.checks_run = 0
        self.checks_failed = 0
        self.failures = []

    def calibrate(self):
        self.calibrations.append(calibration())
        return len(self.calibrations) - 1

    def scaled(self, seconds, index):
        half = CAL_WINDOW // 2
        window = self.calibrations[max(0, index + 1 - half): index + 1 + half]
        return seconds * CAL_REF_S / statistics.median(window)

    def set_up(self):
        index = self.calibrate()
        start = time.perf_counter()
        self.lib = load_library()
        jobs = self.workload.next_round()
        self.setup_samples.append((time.perf_counter() - start, index))
        self.calibrate()
        if self.round_kinds is None:
            self.round_kinds = [job.kind for job in jobs]
        return jobs

    def run_round(self, index, jobs, tracer, keep_times):
        """Run one round of jobs; returns their total seconds."""
        total = 0.0
        for position, job in enumerate(jobs):
            job_id = "%d.%d" % (index, position)
            tracer.job_id = job_id
            self.attempted += 1
            gc.collect()  # every job starts with the same collector state
            cal_index = self.calibrate()
            start = time.perf_counter()
            try:
                out = tracer.call("job", self.workload.run, self.lib, tracer, job)
            except Exception:
                elapsed = time.perf_counter() - start
                self.fail(job, job_id, "raised:\n" + traceback.format_exc())
                out = None
            else:
                elapsed = time.perf_counter() - start
            self.calibrate()
            total += elapsed
            if keep_times:
                self.job_samples.append((job.kind, elapsed, cal_index))
            if tracer.enabled:
                self.traced_samples.append((elapsed, cal_index))
            if out is not None:
                self.verify(job, job_id, out, tracer, elapsed, cal_index, index == 0)
        return total

    def verify(self, job, job_id, out, tracer, elapsed, cal_index, thorough):
        checks = self.workload.check(self.lib, job, out, thorough)
        failed = [name for name, ok in checks if not ok]
        self.checks_run += len(checks)
        self.checks_failed += len(failed)
        record = self.workload.describe(self.lib, tracer, job, out)
        record.update(job=job_id, kind=job.kind, seconds=elapsed, calibration=cal_index,
                      checks=len(checks), failed=failed)
        self.records.append(record)
        if failed:
            self.fail(job, job_id, "checks failed: " + ", ".join(failed))

    def fail(self, job, job_id, why):
        self.failed += 1
        self.failures.append({"job": job_id, "kind": job.kind, "why": why, "input": job.text})
        print("job %s (%s) failed: %s" % (job_id, job.kind, why), file=sys.stderr)


def measure(workload_cls, seed, seconds, trace):
    """Set-up (a fresh import of dgares and the round's seeded inputs)
    precedes every round and is timed on its own; the jobs are timed
    one by one."""
    run = Run(workload_cls(seed))
    off, on = Tracer(False), Tracer(True)
    timed = 0.0
    index = 0
    while timed < seconds:
        jobs = run.set_up()
        if not trace:
            timed += run.run_round(index, jobs, off, True)
        else:
            # the same inputs untraced and traced, alternating which goes first
            for tracer in ((off, on) if index % 2 == 0 else (on, off)):
                timed += run.run_round(index, jobs, tracer, tracer is off)
        index += 1
    return {
        "rounds": index,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "run": run,
        "tracer": on,
    }


def kind_times(run):
    out = {}
    for kind, seconds, index in run.job_samples:
        out.setdefault(kind, []).append(run.scaled(seconds, index))
    return out


def end_to_end(result):
    """Every time is computed from the median (scaled) time of each kind:
    the round's jobs, each valued at its kind's median, give the
    throughput and the percentiles of the mix."""
    run = result["run"]
    medians = {kind: statistics.median(t) for kind, t in kind_times(run).items()}
    typical = [medians[kind] for kind in run.round_kinds]
    setups = [run.scaled(seconds, index) for seconds, index in run.setup_samples]
    return {
        "jobs_per_s": (len(typical) / sum(typical), "1/s"),
        "job_s.p50": (statistics.median(typical), "s"),
        "job_s.p90": (statistics.quantiles(typical, n=10, method="inclusive")[8], "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def per_layer(result):
    run, tracer, rounds = result["run"], result["tracer"], result["rounds"]
    scale = CAL_REF_S / statistics.median(run.calibrations) / rounds
    out = {}
    times = tracer.layer_times()
    job_calls, _, job_self = times.pop("job", [0, 0.0, 0.0])
    for name in SPAN_NAMES:
        calls, busy, own = times.get(name, (0, 0.0, 0.0))
        out[name + ".calls"] = (calls / rounds, "count/round")
        out[name + ".busy_s"] = (busy * scale, "s/round")
        out[name + ".self_s"] = (own * scale, "s/round")
    for name in COUNT_NAMES:
        out[name] = (tracer.counts.get(name, 0) / rounds, "count/round")
    kept = tracer.counts.get("minimize.kept_basis", 0)
    seen = tracer.counts.get("minimize.input_basis", 0)
    out["minimize.survival_ratio"] = (kept / seen if seen else 0.0, "ratio")
    # both passes of a round are checked
    out["checks.run"] = (run.checks_run / (2 * rounds), "count/round")
    out["checks.failed"] = (run.checks_failed / (2 * rounds), "count/round")
    out["job.calls"] = (job_calls / rounds, "count/round")
    out["job.self_s"] = (job_self * scale, "s/round")
    traced = sum(run.scaled(seconds, index) for seconds, index in run.traced_samples)
    untraced = sum(run.scaled(seconds, index) for _, seconds, index in run.job_samples)
    out["trace.overhead_ratio"] = (traced / untraced - 1.0, "ratio")
    return out


def report(name, seed, trace, result):
    run = result["run"]
    env = environment(seed, name)
    metrics = per_layer(result) if trace else end_to_end(result)
    correct = run.failed == 0 and run.checks_failed == 0
    print("environment: " + json.dumps(env))
    print("%s: %d rounds of %d jobs, %d jobs run, %d checks (%d failed), failed_ratio = %.6g (%d/%d)" % (
        name, result["rounds"], len(run.round_kinds), run.attempted, run.checks_run,
        run.checks_failed, run.failed / run.attempted, run.failed, run.attempted))
    if not trace:
        times = [t for ts in kind_times(run).values() for t in ts]
        beyond = sum(1 for t in times if t > metrics["job_s.p90"][0])
        print("job_s samples: %d jobs, %d of them beyond p90%s" % (
            len(times), beyond, "" if beyond >= 10 else " (fewer than ten)"))
    print("machine speed: calibration loop median %.4g s (reference %.4g s); reported times are scaled by %.4g" % (
        statistics.median(run.calibrations), CAL_REF_S, CAL_REF_S / statistics.median(run.calibrations)))
    for key, (value, unit) in metrics.items():
        print("  %-48s %14.6g %s" % (key, value, unit))
    values = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    doc = {
        "environment": env,
        "trace": trace,
        "rounds": result["rounds"],
        "round_kinds": run.round_kinds,
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_ratio": run.failed / run.attempted,
        "checks_run": run.checks_run,
        "checks_failed": run.checks_failed,
        "setup_samples": run.setup_samples,
        "calibrations": run.calibrations,
        "metrics": values,
        "jobs": run.records,
        "failures": run.failures,
    }
    if trace:
        doc["spans"] = result["tracer"].records()
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / ("%s-seed%d-trace%d.json" % (name, seed, trace))
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    print("full result: %s" % path.relative_to(HERE.parent))
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": values}))
    return correct


def run_all(args):
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in sorted(WORKLOADS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1]) if lines else {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        combined["correct"] = combined["correct"] and last["correct"] and proc.returncode == 0
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for key, value in last["metrics"].items():
            combined["metrics"][name + "." + key] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "dgares" / "__init__.py").is_file():
        print("dgares sources not found under %s" % SRC, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    return 0 if report(args.workload, args.seed, args.trace, result) else 1


if __name__ == "__main__":
    sys.exit(main())
