#!/usr/bin/env python3
"""The verifier benchmark: time to a verdict, from outside the verifier.

    python3 vbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 vbench/run.py --selftest

Run it from the root of a checkout.  It builds verus_cli and the
benchmark's own executable (vbench/vbench.exe) with dune, runs one
workload, checks every verdict against the oracle in vstats.py and every
digest against its reference, and prints two JSON lines: a full report
(every metric by name with its unit, per-job rows and provenance), then
the result line.  With --trace 0 the result line holds the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a separate
traced run, whose spans are written as Chrome trace events under
vbench/_work/.

Workloads (NOTES.md says why each was chosen):
  cli_cold        verus_cli verify processes, one at a time, 10 s limit each
  daemon_warm     a warm in-process verusd, one client in a closed loop
  certified_fill  in-process jobs=2 certified escalate-ladder verification
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import vstats  # noqa: E402

BENCH = Path(__file__).resolve().parent
LIMIT_S = 10.0  # per-job limit of cli_cold
DOMAINS = {"cli_cold": 1, "daemon_warm": 2, "certified_fill": 2}
WORKLOADS = tuple(DOMAINS)

CLI_JOBS = [
    (p, "Verus")
    for p in (
        "singly_linked",
        "doubly_linked",
        "mem4",
        "dlock",
        "break_pop",
        "break_index",
        "vstd_seq",
        "const_cond",
    )
] + [(p, "Dafny") for p in ("singly_linked", "doubly_linked", "break_pop")]

# cli_cold's fast rounds: every job but the two that take seconds.  They
# give the per-job latency statistics more samples; FAST_ROUNDS of them
# follow every full pass.
FAST_CLI_JOBS = [j for j in CLI_JOBS if j not in (("mem4", "Verus"), ("break_index", "Verus"))]
FAST_ROUNDS = 2

# End-to-end metrics: name -> unit.  GATED (the result line of --trace 0,
# and BENCHMARK.json's end_to_end) are the ones every workload has and
# that are never 0; the rest are in the report line only.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "verdict_geomean_s": "s",
    "request_p50_ms": "ms",
    "request_p99_ms": "ms",
    "requests_per_s": "1/s",
    "heap_growth_kb_per_request": "KiB",
    "peak_rss_mb": "MiB",
    "wrong_verdicts": "count",
    "digest_mismatches": "count",
    "failed_share": "ratio",
    "request_samples": "count",
}
GATED = ["setup_s", "wall_s", "verdict_geomean_s", "request_p50_ms", "peak_rss_mb"]

PER_LAYER = {
    "smt.solve_s": "s",
    "smt.sat_s": "s",
    "smt.euf_s": "s",
    "smt.lia_s": "s",
    "smt.comb_s": "s",
    "smt.ematch_s": "s",
    "smt.cert_s": "s",
    "smt.instances": "count",
    "smt.conflicts": "count",
    "smt.unknowns": "count",
    "modes.self_s": "s",
    "typecheck.self_s": "s",
    "ownership.self_s": "s",
    "vlint.self_s": "s",
    "encode.self_s": "s",
    "encode.vcs": "count",
    "prune.self_s": "s",
    "prune.kept_ratio": "ratio",
    "prune.query_kb": "KiB",
    "vcache.fingerprint_s": "s",
    "vcache.lookup_s": "s",
    "vcache.hit_ratio": "ratio",
    "vcache.open_s": "s",
    "vcache.flush_s": "s",
    "vcache.store_s": "s",
    "vcache.store_kb": "KiB",
    "vflow.prescreen_s": "s",
    "vflow.discharge_ratio": "ratio",
    "vladder.self_s": "s",
    "vladder.attempts": "count",
    "vladder.escalations": "count",
    "vladder.win_ratio": "ratio",
    "vcheck.replay_s": "s",
    "vcheck.trusted_ratio": "ratio",
    "vcheck.rejected": "count",
    "sched.tasks": "count",
    "sched.steal_ratio": "ratio",
    "sched.utilization": "ratio",
    "verusd.handler_ms": "ms",
    "verusd.transport_ms": "ms",
    "verusd.frame_kb": "KiB",
    "gc.minor": "count",
    "gc.major": "count",
    "gc.promoted_mb": "MiB",
    "driver.residue_s": "s",
    "driver.residue_share": "ratio",
}


class BenchError(Exception):
    pass


# ----------------------------------------------------------------------
# Build and provenance
# ----------------------------------------------------------------------


def build(root):
    if not (root / "dune-project").is_file() or not (root / "lib").is_dir():
        raise BenchError("run from the root of a checkout of the verifier (no dune-project/lib here)")
    if shutil.which("dune") is None:
        raise BenchError("dune is not on PATH")
    rel = BENCH.relative_to(root)
    targets = ["./bin/verus_cli.exe", f"./{rel}/vbench.exe"]
    # No shared dune cache: the build writes only under the checkout.
    r = subprocess.run(
        ["dune", "build", "--root", ".", *targets],
        cwd=root,
        env=dict(os.environ, DUNE_CACHE="disabled"),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        timeout=880,
    )
    if r.returncode != 0:
        raise BenchError("build failed:\n" + r.stdout.decode(errors="replace")[-4000:])
    return root / "_build/default/bin/verus_cli.exe", root / f"_build/default/{rel}/vbench.exe"


def provenance(root, args):
    def first_line(cmd):
        try:
            r = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=30)
            return r.stdout.strip().splitlines()[0] if r.returncode == 0 and r.stdout.strip() else None
        except (OSError, subprocess.SubprocessError):
            return None

    h = hashlib.sha256()
    for sub in ("lib", "bin", BENCH.name):
        for f in sorted((root / sub).rglob("*")):
            if f.is_file() and f.suffix in (".ml", ".mli", ".py", "") and "_work" not in f.parts:
                h.update(str(f.relative_to(root)).encode())
                h.update(f.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "ocaml": first_line(["ocamlfind", "ocamlopt", "-version"]) or first_line(["ocaml", "-vnum"]),
        "git_commit": first_line(["git", "rev-parse", "HEAD"]) if (root / ".git").exists() else None,
        "source_sha256": h.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "per_job_limit_s": LIMIT_S,
    }


# ----------------------------------------------------------------------
# cli_cold: verus_cli processes
# ----------------------------------------------------------------------


def run_process(cmd, out_path, limit, cwd):
    """Run cmd to completion or kill it at the limit.  Returns (seconds,
    killed, exit code, peak RSS in KiB)."""
    env = {k: v for k, v in os.environ.items() if k != "VERUS_CACHE"}
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT, cwd=cwd, env=env)
        killed = threading.Event()

        def kill():
            killed.set()
            os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(limit, kill)
        timer.start()
        # Wait without reaping, so the timer can never signal a reused pid.
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        elapsed = time.perf_counter() - t0
        timer.cancel()
        timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, killed.is_set(), proc.returncode, usage.ru_maxrss


def failure_fn_of(output):
    # "first failure: [VC002] pop_front: pop_front: assertion"
    for line in output.splitlines():
        if line.startswith("first failure: ["):
            rest = line.split("] ", 1)[1]
            return rest.split(":", 1)[0]
    return None


def cli_job(cli, root, work, program, profile, phase):
    out_path = work / f"{program}-{profile}.out"
    t, killed, code, rss = run_process(
        [str(cli), "verify", program, profile, "--no-cache"], out_path, LIMIT_S, root
    )
    row = {
        "phase": phase,
        "program": program,
        "profile": profile,
        "time_s": LIMIT_S if killed else t,
        "killed": killed,
        "exit_code": code,
        "peak_rss_kb": rss,
    }
    if killed:
        row["error"] = f"killed at the {LIMIT_S:g} s per-job limit"
    elif code == 0:
        row["proved"] = True
    elif code in (1, 3, 5):
        row["proved"] = False
        row["failure_fn"] = failure_fn_of(out_path.read_text(errors="replace"))
    else:
        row["error"] = f"exit code {code}"
    return row


def cli_passes(cli, root, work, rng, seconds, fast_rounds):
    """Cycles until the time is spent, at least one: a whole pass over
    the job list, then fast_rounds rounds of the fast jobs, each in
    seeded order.  Returns the full passes' walls and every job row."""
    passes, rows = [], []

    def run_round(jobs, phase):
        jobs = jobs[:]
        rng.shuffle(jobs)
        rows.extend(cli_job(cli, root, work, p, f, phase) for p, f in jobs)

    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        run_round(CLI_JOBS, "timed")
        passes.append(time.perf_counter() - t0)
        for _ in range(fast_rounds):
            run_round(FAST_CLI_JOBS, "fast")
    return passes, rows


def cli_setup(cli, root, work, n=31):
    """Start-up of the CLI: `verus_cli list`, n times; the median counts."""
    times = []
    for _ in range(n):
        t, killed, code, _ = run_process([str(cli), "list"], work / "list.out", LIMIT_S, root)
        if killed or code != 0:
            raise BenchError("verus_cli list failed")
        times.append(t)
    return times


def cli_cold(args, root, cli, exe, work):
    rng = random.Random(args.seed)
    setup = cli_setup(cli, root, work)
    if args.trace:
        passes, rows = cli_passes(cli, root, work, rng, 0, 0)
    else:
        passes, rows = cli_passes(cli, root, work, rng, args.seconds, FAST_ROUNDS)
    raw = {"setup_s": setup, "pass_walls_s": passes, "jobs": rows}
    if args.trace:
        # The traced run replays in process what finished within the limit
        # in the pass above; a job killed there is listed as untraced.
        done = [r for r in rows if not r["killed"]]
        raw["untraced"] = [
            {"job": f"{r['program']}/{r['profile']}", "reason": r["error"]}
            for r in rows
            if r["killed"]
        ]
        traced = run_vbench(exe, root, work, args, ["--jobs", ",".join(f"{r['program']}:{r['profile']}" for r in done)])
        raw["traced"] = traced
    return raw


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------


def run_vbench(exe, root, work, args, extra=()):
    mode = "cli_trace" if args.workload == "cli_cold" else args.workload
    out = work / f"{mode}.json"
    cmd = [
        str(exe),
        mode,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work", str(work),
        "--out", str(out),
        *extra,
    ]
    r = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=170)
    if r.returncode != 0:
        raise BenchError(f"{mode} failed (exit {r.returncode}):\n" + r.stdout.decode(errors="replace")[-4000:])
    return seconds_of_ns(json.loads(out.read_text()))


def seconds_of_ns(doc):
    """vbench.exe writes times as whole nanoseconds (keys ending _ns)."""

    def conv(d):
        for k in [k for k in d if k.endswith("_ns")]:
            v = d.pop(k)
            d[k[:-3] + "_s"] = [x / 1e9 for x in v] if isinstance(v, list) else v / 1e9

    conv(doc)
    conv(doc["counters"])
    for r in doc["jobs"]:
        conv(r)
    return doc


# ----------------------------------------------------------------------
# Checks and metrics
# ----------------------------------------------------------------------


def check_jobs(rows):
    """Oracle and digest checks.  A job fails when it was killed, errored,
    has a wrong verdict or a digest that differs from its reference."""
    wrong = mismatched = failed = 0
    for r in rows:
        bad = False
        if r.get("killed") or "error" in r:
            bad = True
        else:
            proved = r["proved"] if "proved" in r else r["ok"]
            if not vstats.verdict_matches(r["program"], r["profile"], proved, r.get("failure_fn")):
                r["wrong_verdict"] = True
                wrong += 1
                bad = True
        if r.get("reference") is not None and r.get("digest") != r["reference"]:
            r["digest_mismatch"] = True
            mismatched += 1
            bad = True
        r["failed"] = bad
        failed += bad
    return wrong, mismatched, failed


def latency(rows):
    """Per-job latency statistics of timed rows.  Every (program,
    profile) job weighs the same, however many samples it has."""
    samples = [(r["time_s"], r.get("killed", False)) for r in rows]
    weights = vstats.job_weights([(r["program"], r["profile"]) for r in rows])
    lat_ms = [t * 1000.0 for t, _ in samples]
    return {
        "verdict_geomean_s": vstats.censored_geomean(samples, LIMIT_S, weights),
        "request_p50_ms": vstats.weighted_percentile(lat_ms, weights, 50),
        "request_p99_ms": vstats.weighted_percentile(lat_ms, weights, 99),
        "requests_per_s": len(rows) / sum(t for t, _ in samples),
    }


def end_to_end(workload, raw):
    rows = raw["jobs"]
    timed = [r for r in rows if r["phase"] in ("timed", "fast")]
    # Time lost to other tenants of the host only ever adds, and it comes
    # in bursts of tens of seconds: so every block (a daemon_warm block, a
    # certified_fill cycle; cli_cold has one) is measured on its own and
    # the best block counts.  p99 is over all samples, which gives the
    # daemon's ten samples beyond it.
    m = {
        "setup_s": vstats.median(raw["setup_s"]),
        "wall_s": min(raw["pass_walls_s"]),
        "request_samples": len(timed),
    }
    blocks = sorted({r.get("block", 0) for r in timed})
    per_block = [latency([r for r in timed if r.get("block", 0) == b]) for b in blocks]
    for k in per_block[0]:
        best = max if k == "requests_per_s" else min
        m[k] = best(s[k] for s in per_block)
    m["request_p99_ms"] = latency(timed)["request_p99_ms"]
    if workload == "daemon_warm":
        growth = vstats.median(raw["heap_growth_words"])
        m["heap_growth_kb_per_request"] = growth * 8 / 1024.0 / raw["requests"]
    if workload == "cli_cold":
        # A killed job's peak depends on how far it got before the limit.
        m["peak_rss_mb"] = max(r["peak_rss_kb"] for r in timed if not r["killed"]) / 1024.0
    else:
        m["peak_rss_mb"] = raw["peak_rss_kb"] / 1024.0
    return m


def span_check(spans):
    """Every span lies inside its parent's interval when both ran on one
    thread.  (The daemon's handler span runs on its connection thread and
    may close just after the client has read the final frame.)"""
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        p = by_id.get(s["parent"])
        if p is None or p["tid"] != s["tid"]:
            continue
        if s["start"] < p["start"] or s["end"] > p["end"]:
            raise BenchError(f"span {s['name']} lies outside its parent {p['name']}")


def per_layer(workload, raw):
    doc = json.loads(Path(raw["trace_file"]).read_text())
    spans = vstats.spans_of_chrome(doc)
    span_check(spans)
    layers, jobs, selfs = vstats.attribute(spans)
    for j in jobs.values():
        if j["driver_wall"] <= 0:
            raise BenchError(f"traced {j['label']} has no driver span")
    c = raw["counters"]

    def get(k):
        return c.get(k, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {k: layers.get(k, 0.0) for k, unit in PER_LAYER.items() if unit == "s"}
    for k in ("smt.sat_s", "smt.euf_s", "smt.lia_s", "smt.comb_s", "smt.ematch_s"):
        m[k] = get(k)
    driver_wall = sum(j["driver_wall"] for j in jobs.values())
    residue = sum(j["residue"] for j in jobs.values())
    handler = [s["end"] - s["start"] for s in spans if s["name"] == "verusd.handler"]
    # A client call's self time is the part its handler does not cover.
    transport = [selfs[s["id"]] for s in spans if s["name"] == "verusd.client_call"]
    requests = get("verusd.requests")
    m.update(
        {
            "smt.instances": get("smt.instances"),
            "smt.conflicts": get("smt.conflicts"),
            "smt.unknowns": get("smt.unknowns"),
            "encode.vcs": get("encode.vcs"),
            "prune.kept_ratio": ratio(get("prune.kept_axioms"), get("prune.total_axioms")),
            "prune.query_kb": get("prune.query_bytes") / 1024.0,
            "vcache.hit_ratio": ratio(get("vcache.hits"), get("vcache.lookups")),
            "vcache.store_kb": get("vcache.store_bytes") / 1024.0,
            "vflow.discharge_ratio": ratio(get("vflow.proved"), get("vflow.checked")),
            "vladder.attempts": get("vladder.attempts"),
            "vladder.escalations": get("vladder.escalations"),
            "vladder.win_ratio": ratio(get("vladder.wins"), get("vladder.attempts")),
            "vcheck.trusted_ratio": ratio(get("vcheck.trusted"), get("vcheck.steps")),
            "vcheck.rejected": get("vcheck.rejected"),
            "sched.tasks": get("sched.executed"),
            "sched.steal_ratio": ratio(get("sched.stolen"), get("sched.executed")),
            "sched.utilization": ratio(get("sched.busy_s"), driver_wall * DOMAINS[workload]),
            "verusd.handler_ms": ratio(sum(handler) * 1000.0, len(handler)),
            "verusd.transport_ms": ratio(sum(transport) * 1000.0, len(transport)),
            "verusd.frame_kb": ratio(get("verusd.frame_bytes") / 1024.0, requests),
            "gc.minor": get("gc.minor"),
            "gc.major": get("gc.major"),
            "gc.promoted_mb": get("gc.promoted_words") * 8 / 2.0**20,
            "driver.residue_s": residue,
            "driver.residue_share": ratio(residue, driver_wall),
        }
    )
    traced_jobs = [
        {
            "job": j["label"],
            "driver_wall_s": j["driver_wall"],
            "layers_s": j["layers"],
            "residue_s": j["residue"],
        }
        for _, j in sorted(jobs.items())
    ]
    return m, traced_jobs


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, from /proc/stat."""
    fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    return fields[7], sum(fields[:8])


def run(args, root):
    cli, exe = build(root)
    work = BENCH / "_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    steal0, total0 = cpu_ticks()
    try:
        if args.workload == "cli_cold":
            raw = cli_cold(args, root, cli, exe, work)
        else:
            raw = run_vbench(exe, root, work, args)
        rows = raw["jobs"] + (raw["traced"]["jobs"] if "traced" in raw else [])
        wrong, mismatched, failed = check_jobs(rows)
        steal1, total1 = cpu_ticks()
        report = {
            "provenance": provenance(root, args),
            # Time the hypervisor gave to others while this run wanted the
            # CPUs; a high share marks a disturbed run.
            "cpu_steal_share": (steal1 - steal0) / max(1, total1 - total0),
            "jobs": rows,
        }
        problems = []
        if args.trace:
            traced = raw.get("traced", raw)
            metrics, traced_jobs = per_layer(args.workload, traced)
            problems = traced["mismatches"]
            report["traced_jobs"] = traced_jobs
            report["untraced"] = raw.get("untraced", [])
            report["replay_mismatches"] = problems
            trace_out = BENCH / "_work" / f"trace-{args.workload}-seed{args.seed}.json"
            shutil.copyfile(traced["trace_file"], trace_out)
            report["trace_file"] = str(trace_out.relative_to(root))
            units = PER_LAYER
            result_names = list(PER_LAYER)
        else:
            metrics = end_to_end(args.workload, raw)
            units = END_TO_END
            result_names = GATED
        metrics.update(
            {
                "wrong_verdicts": wrong,
                "digest_mismatches": mismatched,
                "failed_share": failed / len(rows),
            }
        )
        report["metrics"] = {k: {"value": v, "unit": units.get(k, END_TO_END.get(k))} for k, v in metrics.items()}
        print(json.dumps({"report": report}))
        result = {
            "correct": wrong == 0 and not problems,
            "attempted": len(rows),
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in result_names},
        }
        print(json.dumps(result))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def selftest():
    import unittest

    suite = unittest.defaultTestLoader.discover(str(BENCH), pattern="test_*.py")
    ok = unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful()
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true", help="run the benchmark's own tests")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    try:
        run(args, Path.cwd())
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as e:
        print(f"vbench: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
