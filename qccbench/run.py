#!/usr/bin/env python3
"""The qcc benchmark: one command for every workload and metric.

    python3 qccbench/run.py --workload cold-corpus --seed 1 --seconds 15 --trace 0

Run it from the root of a qcc checkout. It builds the qccbench binary and
qccd from the checkout's sources (into $CARGO_TARGET_DIR, default
.bench_build), runs one workload for --seconds, checks every job's verdict
against expected.json, prints a report with every metric by name and unit,
and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (untraced); --trace 1 reports the
per-layer metrics of a separate traced run over the same inputs. See
README.md for the workloads, the metrics and what each layer metric is
predicted to move.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("cold-corpus", "replay-heavy", "serve-mix")
TIMEOUT_S = 170

# The metrics BENCHMARK.json gates. The report also prints
# reopen_ms_tail, which is not gated (see README.md).
END_TO_END = ("pass_ms_p50", "pass_ms_tail", "jobs_per_s", "edit_ms_p50",
              "edit_ms_tail", "reopen_ms_p50", "setup_s", "peak_rss_mb")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds qccbench and qccd; returns their paths."""
    if not any(os.path.exists(os.path.join(build_dir, f))
               for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, cwd=ROOT)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
                    "--target", "qccbench", "qccd_tool"],
                   check=True, stdout=sys.stderr, cwd=ROOT)
    return (os.path.join(build_dir, "qccbench"),
            os.path.join(build_dir, "qcc-qccd", "qccd"))


def check_job(job, expected, reference):
    """The reason job fails its expected result, or None."""
    if "failure" in job:
        return job["failure"]
    kind, name = job["kind"], job["name"]
    generated = kind in ("wide", "deep", "edit")
    exp = expected["generated" if generated else "corpus"].get(name)
    if exp is None:
        return "no expected result for " + name
    if job["status"] != exp["verdict"] or not job["ok"]:
        return "verdict %s, expected %s" % (job["status"], exp["verdict"])
    bounds = job["bounds"]
    if generated:
        if name not in reference:
            return "no reference bounds for " + name
        if bounds != reference[name]:
            return "bounds differ from the seed-independent variant"
    else:
        want = exp["bounds"]
        if set(bounds) != set(want):
            return "bounded functions %s, expected %s" % (
                sorted(bounds), sorted(want))
        for fn, w in want.items():
            got = bounds[fn]
            if w == "parametric" and got is not None:
                return "%s: concrete bound %s for a parametric spec" % (fn, got)
            if w == "finite" and not isinstance(got, int):
                return "%s: no finite bound" % fn
            if isinstance(w, int) and got != w:
                return "%s: bound %s B, expected %s B" % (fn, got, w)
    main = bounds.get("main")
    if not isinstance(main, int) or main < 4:
        return "main has no finite bound"
    t1 = job["t1"]
    if not (t1["checked"] and t1["ok"] and t1["stack_bytes"] == main - 4):
        return "Theorem 1 at bound(main)-4 not passed"
    mark = job["watermark"]
    if mark is None:
        return "no watermark measured"
    if exp["gap"] == "exact" and mark != main - 4:
        return "watermark %d B, expected bound(main)-4 = %d B (E5)" % (
            mark, main - 4)
    if mark > main - 4:
        return "watermark %d B above bound(main)-4 = %d B" % (mark, main - 4)
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    os.chdir(ROOT)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(target, "qccbench")
    try:
        bench, qccd = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        log("qccbench: build failed: %s" % e)
        return 2

    # Relative and short: the work directory holds qccd's Unix socket.
    work = os.path.relpath(os.path.join(target, "w%d" % os.getpid()))
    out = os.path.join(work, "report.json")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    # The binary and the qccd it starts share a new process group, so
    # nothing outlives this run even if the binary is killed.
    proc = subprocess.Popen(
        [bench, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--qccd", qccd, "--workdir", work, "--out", out],
        stdout=sys.stderr, start_new_session=True)
    try:
        proc.wait(timeout=TIMEOUT_S)
        if proc.returncode != 0:
            log("qccbench: binary exited with %d" % proc.returncode)
            return 1
        with open(out) as f:
            report = json.load(f)
        spans = os.path.join(work, "spans.jsonl")
        if os.path.exists(spans):
            shutil.move(spans, os.path.join(
                target, "qccbench-spans-%s.jsonl" % args.workload))
    except subprocess.TimeoutExpired:
        log("qccbench: binary timed out after %d s" % TIMEOUT_S)
        return 1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)

    with open(os.path.join(BENCH_DIR, "expected.json")) as f:
        expected = json.load(f)
    failures = {}
    for job in report["jobs"]:
        why = check_job(job, expected, report["reference_bounds"])
        if why is not None:
            key = "%s %s: %s" % (job["kind"], job["name"], why)
            failures[key] = failures.get(key, 0) + 1
    for g in report["guards"]:
        if not g["ok"]:
            key = "guard %s failed: %s" % (g["name"], g["detail"])
            failures[key] = failures.get(key, 0) + 1
    attempted = len(report["jobs"]) + len(report["guards"])
    failed = sum(failures.values())

    print("qccbench %s seed %d, %s build, hardware_concurrency %d, "
          "trace %d, measured %.2f s" % (
              report["workload"], report["seed"], report["build_type"],
              report["hardware_concurrency"], report["trace"],
              report["measured_s"]))
    for name, m in report["metrics"].items():
        extra = ""
        if "percentile" in m:
            extra += " p%d" % m["percentile"]
        if "iqr" in m:
            extra += " iqr %.6g" % m["iqr"]
        value = "null" if m["value"] is None else "%.6g" % m["value"]
        print("  %-34s %12s %-6s n=%d%s" % (
            name, value, m["unit"], m["samples"], extra))
    print("  %-34s %12.6g %-6s (%d of %d jobs and guards)" % (
        "fail_ratio", failed / attempted if attempted else 0.0, "ratio",
        failed, attempted))
    for g in report["guards"]:
        print("  guard %-28s %s (%s)" % (
            g["name"], "ok" if g["ok"] else "FAILED", g["detail"]))
    for note in report["notes"]:
        print("  note: " + note)
    for key, n in sorted(failures.items()):
        print("  FAIL x%d %s" % (n, key))

    metrics = {name: {"value": m["value"], "unit": m["unit"]}
               for name, m in report["metrics"].items()}
    if args.trace == 0:
        metrics = {name: metrics[name] for name in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
