#!/usr/bin/env python3
"""Build the simulator benchmark from this checkout and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark binary (perfbench/cpp, a CMake
package of its own that compiles ../src) is built under $CARGO_TARGET_DIR
(default .bench_build) on first use; later runs only re-check the build.

Standard output ends with one JSON object: correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json, with --trace 1 the per-layer ones. The line before it holds
the detail: simulated-output digest, host fingerprint, thread count and
the traced run's layer breakdown. Exits non-zero without a result when the
sources are missing, the build fails or the binary fails.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("simulator sources (src/) not found next to perfbench/")
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            die("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench_bin")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def source_digest():
    """SHA-256 over src/ (paths and contents): identifies the measured code
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def thread_count(pid):
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def run_binary(exe, args):
    """Run the binary, sampling its thread count; returns (stdout, max threads)."""
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.scale != 1.0:
        cmd += ["--scale", repr(args.scale)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    max_threads = 0
    deadline = time.monotonic() + BINARY_TIMEOUT_S
    try:
        while proc.poll() is None:
            max_threads = max(max_threads, thread_count(proc.pid))
            if time.monotonic() > deadline:
                proc.kill()
                proc.wait()
                die("benchmark binary timed out")
            time.sleep(0.02)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    out = proc.stdout.read()
    if proc.returncode != 0:
        die(f"benchmark binary exited with code {proc.returncode}")
    return out, max_threads


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--scale", type=float, default=1.0,
                   help="shrink every run length (smoke self-test only)")
    args = p.parse_args()
    if args.seed < 0:
        die("--seed must be non-negative")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    # BENCHMARK.json lists the gated workloads; reference.json lists every
    # workload the binary runs, including ungated ones (see their "gated").
    with open(os.path.join(HERE, "reference.json")) as f:
        names = list(json.load(f)["workloads"])
    if args.workload not in names:
        die(f"unknown workload {args.workload!r}; one of {', '.join(names)}")
    declared = bench["per_layer" if args.trace else "end_to_end"]

    exe = build()
    load_before = os.getloadavg()
    out, max_threads = run_binary(exe, args)
    load_after = os.getloadavg()

    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        die("benchmark binary printed no result")
    res = json.loads(lines[-1])
    metrics = res["metrics"]
    if set(metrics) != {m["name"] for m in declared}:
        die("benchmark metrics do not match BENCHMARK.json: "
            + ", ".join(sorted(set(metrics) ^ {m["name"] for m in declared})))
    for m in declared:
        if metrics[m["name"]]["unit"] != m["unit"]:
            die(f"unit of {m['name']} is {metrics[m['name']]['unit']}, "
                f"BENCHMARK.json says {m['unit']}")

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)
    detail = res["detail"]
    detail["host"] = {
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "compiler": detail["build"]["compiler"],
        "build_type": detail["build"]["build_type"],
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "loadavg_before": list(load_before),
        "loadavg_after": list(load_after),
        "max_threads": max_threads,
    }
    del detail["build"]
    print(json.dumps({"perfbench_detail": {"workload": res["workload"],
                                           "seed": res["seed"],
                                           "trace": args.trace,
                                           **detail}}))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
