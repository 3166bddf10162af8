#!/usr/bin/env python3
"""Benchmark runner for the layered-consensus workspace.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <paper-full|scan-sym|resume-warm> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the workload program (perfbench/Cargo.toml, into $CARGO_TARGET_DIR,
default .bench_build), times its set-up in several fresh processes, runs
one measuring process, and prints as its last line one JSON object with
`correct`, `attempted`, `failed` and `metrics`. With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer
ones. See perfbench/README.md.
"""

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
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-full", "scan-sym", "resume-warm")
# Set-up is timed in this many processes (the measuring one included);
# the reported set-up time is their median. paper-full's set-up holds a
# full reference pass, so it takes fewer samples.
SETUP_SAMPLES = {"paper-full": 3, "scan-sym": 5, "resume-warm": 5}
# Every process started here is killed after this many seconds.
PROCESS_LIMIT_S = 150.0


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def fail(msg):
    log(msg)
    sys.exit(1)


def build(target_dir):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    binary = target_dir / "release" / "perfbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def run_process(cmd, env):
    """Runs one workload process. Returns (seconds from start to its
    `ready` line, its parsed result line)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True)
    timer = threading.Timer(PROCESS_LIMIT_S, proc.kill)
    timer.start()
    ready = None
    last = None
    try:
        for line in proc.stdout:
            if ready is None and line.startswith('{"ready"'):
                ready = time.perf_counter() - start
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready is None or last is None:
        fail(f"workload process exited with code {code}: {' '.join(cmd)}")
    return ready, json.loads(last)


def first_line(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else None


def source_id():
    """The commit if this is a git checkout, else a hash of the sources."""
    commit = first_line(["git", "rev-parse", "HEAD"])
    if commit:
        return commit
    digest = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "vendor", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*")
                        if p.is_file() and "target" not in p.parts)
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "source-sha256:" + digest.hexdigest()[:16]


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def spread(values):
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    target_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target_dir.is_absolute():
        target_dir = ROOT / target_dir
    binary = build(target_dir)

    work = target_dir / "perfbench-work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    # Experiments that write scratch files (E-cert) write them here.
    env = dict(os.environ, TMPDIR=str(work / "tmp"))
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--work", str(work)]
    try:
        setup_s, attempted, failed = [], 0, 0
        # Traced runs report no set-up time.
        extra = 0 if args.trace else SETUP_SAMPLES[args.workload] - 1
        for _ in range(extra):
            ready, res = run_process(cmd + ["--setup-only"], env)
            setup_s.append(ready)
            attempted += int(res["attempted"])
            failed += int(res["failed"])
        main_cmd = cmd + ["--seconds", str(args.seconds),
                          "--trace", str(args.trace)]
        trace_file = None
        if args.trace:
            trace_dir = target_dir / "perfbench-trace"
            trace_dir.mkdir(parents=True, exist_ok=True)
            trace_file = trace_dir / f"{args.workload}-seed{args.seed}.json"
            main_cmd += ["--trace-out", str(trace_file)]
        ready, res = run_process(main_cmd, env)
        setup_s.append(ready)
        attempted += int(res["attempted"])
        failed += int(res["failed"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = res["pass_s"]
    if args.trace:
        metrics = {m["name"]: {"value": float(res["per_layer"].get(m["name"], 0.0)),
                               "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        values = {
            "wall_s": statistics.median(passes),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": float(res["peak_rss_mb"]),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "threads": int(res["threads"]),
        "cpu_model": cpu_model(),
        "rustc": first_line(["rustc", "-V"]) or "unknown",
        "commit": source_id(),
        "passes": len(passes),
        "pass_spread": spread(passes),
        "setup_samples": setup_s,
        "failures": res["failures"],
    }
    if trace_file:
        record["trace_file"] = str(trace_file)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
