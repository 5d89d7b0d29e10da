"""End-to-end benchmark of polyhom.

Run from the root of a polyhom checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 15 --trace 0

The workload's inputs are generated from --seed (see jobs.py).  One
process, one thread and one client drive a closed loop: each job goes
from an instance's JSON text to its report text before the next starts.
A run sets up several times, then times whole rounds of the same jobs,
stopping at the round boundary nearest to --seconds of job time; the
first round's reports are checked outside the clock.  The last line
of standard output is one JSON object: end-to-end metrics with
--trace 0, per-layer metrics from wrapped polyhom calls with --trace 1.
Diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import random
import resource
import statistics
import sys
import time
import traceback

import jobs
import tracing

# Set up at least SETUP_MIN_REPS times and until SETUP_MIN_S seconds of
# set-up have been timed, so that the median of a short set-up rests on
# enough repetitions.
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_MIN_S = 3, 15, 1.5
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def setup(workload, seed):
    """Set up repeatedly from a fresh import; every repetition must
    produce the same input texts.  Returns (polyhom, jobs, setup times,
    generator times, identical)."""
    setup_s, generate_s, texts = [], [], None
    identical = True
    while len(setup_s) < SETUP_MIN_REPS or (sum(setup_s) < SETUP_MIN_S and len(setup_s) < SETUP_MAX_REPS):
        gc.collect()
        t0 = time.perf_counter()
        P = jobs.Polyhom()
        job_list, gen_s = jobs.build(workload, seed, P)
        setup_s.append(time.perf_counter() - t0)
        generate_s.append(gen_s)
        identical &= texts is None or texts == [j.text for j in job_list]
        texts = [j.text for j in job_list]
    return P, job_list, setup_s, generate_s, identical


def attempt(P, job):
    """Report text, or None when polyhom raised."""
    try:
        return jobs.run(P, job)
    except Exception:  # a crash is a failed operation, recorded below
        log(f"{job.name} raised:\n{traceback.format_exc()}")
        return None


def checked(job, report, rng):
    """jobs.check, with a report the checks cannot read counted as wrong."""
    try:
        return jobs.check(job, report, rng)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"report could not be checked: {exc!r}"]


def formula_counts(job_list):
    """Per-round work counts computed from the inputs alone."""
    grids = q_tuples = q_law = 0
    for job in job_list:
        d = json.loads(job.text)
        d = d.get("instance", d)
        if "Q" not in d:
            continue
        n, v, q = d["arity"], len(d["vertices"]), len(d["Q"])
        order = max(len(ws) for key, ws in d["fibers"].items() if len(key.split(",")) == n)
        if job.kind in ("verify", "check", "extract", "verdict"):
            q_tuples += q
        if job.kind in ("verify", "associativity"):
            grids += math.comb(v, n + 2)
        if job.kind in ("verify", "verify-action"):
            q_law += q * order ** (n + 1)
    return {"polygroupoid.grids": grids, "polygroupoid.q_tuples": q_tuples, "binding.q_law_evals": q_law}


def report_counts(reports):
    """Per-round counts read from the reports."""
    out = {"hurewicz.boundary_checked": 0, "hurewicz.defect_pairs_checked": 0,
           "polygroupoid.witnesses": 0, "binding.witnesses": 0, "tower.witnesses": 0}
    layer = {"check": "polygroupoid", "associativity": "polygroupoid", "horn-filling": "polygroupoid",
             "extract": "polygroupoid", "verdict": "polygroupoid", "verify-action": "binding",
             "tower-check": "tower", "tower-limit": "tower"}
    for report in reports:
        for line in (report or "").splitlines():
            p = json.loads(line)
            if "stages" in p:
                out["hurewicz.boundary_checked"] += p["stages"]["boundary-vanishing"]["checked"]
                out["hurewicz.defect_pairs_checked"] += p["stages"]["defect-vs-natural-iso"]["checked"]
                continue
            if p.get("command") == "extract" and "witness" in p:
                out["binding.witnesses"] += 1
            checks = p.get("precondition", p).get("checks", [])
            out[f"{layer[p['command']]}.witnesses"] += sum(1 for c in checks if not c["passed"])
    return out


SPAN_METRICS = [
    "polygroupoid.check_associativity", "polygroupoid.check_axioms", "polygroupoid.check_horn_filling",
    "polygroupoid.parse", "cli.emit", "binding.verify_action", "binding.extract",
    "binding.transport_classes", "algebra.group_from_addition", "algebra.iso_check",
    "hurewicz.canonical_faces", "hurewicz.epsilon", "hurewicz.check_boundary_zero",
    "hurewicz.natural_iso", "tower.check_tower", "tower.induced_hom", "tower.inverse_limit",
]
CALL_METRICS = ["algebra.group_from_addition", "hurewicz.canonical_faces", "hurewicz.epsilon", "hurewicz.natural_iso"]


def layer_metrics(tracer, rounds, job_list, reports, generate_s):
    """Per-layer metrics, per round of the workload's jobs."""
    m = {f"{name}_s": (tracer.self_s(name) / rounds, "s") for name in SPAN_METRICS}
    calls = tracer.calls()
    m.update({f"{name}_calls": (calls[name] / rounds, "count") for name in CALL_METRICS})
    for name in ("polygroupoid.horns", "algebra.group_op_calls"):
        m[name] = (tracer.counts[name] / rounds, "count")
    m.update({k: (v, "count") for k, v in formula_counts(job_list).items()})
    m.update({k: (v, "count") for k, v in report_counts(reports).items()})
    m["cli.report_bytes"] = (sum(len(r.encode()) for r in reports if r), "bytes")
    m["polygroupoid.generate_s"] = (statistics.median(generate_s), "s")
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "polyhom", "__init__.py")):
        log(f"no polyhom sources under {src}; run from the root of a polyhom checkout")
        return 2
    sys.path.insert(0, src)

    P, job_list, setup_s, generate_s, correct = setup(args.workload, args.seed)
    if not correct:
        log("setup is not deterministic: repeated set-ups gave different inputs")
    if os.path.dirname(os.path.abspath(P.cli.__file__)) != os.path.join(src, "polyhom"):
        log(f"polyhom was imported from {P.cli.__file__}, not from {src}")
        return 2
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(P, jobs)

    # Closed loop over whole rounds.  In the first round each report is
    # checked against the independent computations once its clock has
    # stopped; later rounds must reproduce the first round's bytes.
    rng = random.Random(args.seed)
    reference, known_bad = [], []
    times, round_s, attempted, failed, rounds = [], [], 0, 0, 0
    # stop at the round boundary nearest to --seconds of job time
    while rounds == 0 or sum(round_s) + statistics.median(round_s) / 2 < args.seconds:
        for k, job in enumerate(job_list):
            if tracer:
                tracer.instance = attempted
            # each job starts from a collected heap, as a fresh CLI process would
            gc.collect()
            t0 = time.perf_counter()
            report = attempt(P, job)
            times.append(time.perf_counter() - t0)
            attempted += 1
            if rounds == 0:
                errors = ["polyhom raised"] if report is None else checked(job, report, rng)
                reference.append(report)
                known_bad.append(bool(errors))
                if errors:
                    correct &= job.fault is not None
                    log(f"{job.name}{' (' + job.fault + ')' if job.fault else ''}: {errors[0]}")
            elif report != reference[k]:
                correct = False
                log(f"{job.name}: report bytes differ from the first round")
            failed += known_bad[k]
        round_s.append(sum(times[-len(job_list):]))
        rounds += 1
    plants = jobs.planted(job_list, reference, rng)
    for label, errors in plants:
        if not errors:
            correct = False
            log(f"planted check not detected: {label}")
    digest = hashlib.sha256("".join(r or "<raised>\n" for r in reference).encode()).hexdigest()

    log(f"workload {args.workload} seed {args.seed}: {rounds} rounds of {len(job_list)} jobs, "
        f"{sum(times):.3f} s timed, median round {statistics.median(round_s):.3f} s, "
        f"planted checks detected {sum(bool(e) for _, e in plants)}/{len(plants)}")
    log(f"report digest sha256:{digest}")
    by_name = {}
    for k, t in enumerate(times):
        by_name.setdefault(job_list[k % len(job_list)].name, []).append(t)
    log("median job seconds: " + ", ".join(f"{n} {statistics.median(ts):.4f}" for n, ts in by_name.items()))
    if tracer:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.bin")
        tracer.write(path)
        log(f"{len(tracer.start)} spans written to {path}")
        metrics = layer_metrics(tracer, rounds, job_list, reference, generate_s)
    else:
        metrics = {
            "instances_per_s": (len(times) / sum(times), "instances/s"),
            "instance_p50_s": (statistics.median(times), "s"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
