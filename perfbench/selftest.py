#!/usr/bin/env python3
"""Smoke self-test of the benchmark at a short run length.

    python3 perfbench/selftest.py [--scale 0.02]

Runs every workload of perfbench/reference.json (the gated ones BENCHMARK.json
lists and the ungated ones) through perfbench/run.py with
--trace 0 and --trace 1 at a fraction of the real run length and checks:

  * the run is correct (no failed output check) and prints every metric
    BENCHMARK.json names for that mode, with the unit it declares;
  * every layer perfbench/reference.json marks as doing most of its work on
    a workload reports a non-zero activity count there;
  * rop.callbacks is 0 on the workload without a ROP engine;
  * no run ever had more threads than the host has hardware threads.

Exits 0 when every check holds, 1 otherwise.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, scale):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace),
           "--scale", str(scale)]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if r.returncode != 0:
        return None, None, r.stderr.strip().splitlines()[-1:] or ["failed"]
    lines = r.stdout.strip().splitlines()
    return json.loads(lines[-2])["perfbench_detail"], json.loads(lines[-1]), []


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--scale", type=float, default=0.02)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "reference.json")) as f:
        ref = json.load(f)
    nproc = len(os.sched_getaffinity(0))

    problems = []
    for w in ref["workloads"]:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            detail, res, err = run(w, trace, args.scale)
            tag = f"{w} --trace {trace}"
            if res is None:
                problems.append(f"{tag}: run failed: {' '.join(err)}")
                continue
            if not res["correct"] or res["failed"] != 0:
                problems.append(f"{tag}: failed output checks: {detail.get('failures')}")
            for m in declared:
                got = res["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{tag}: metric {m['name']} missing or wrong unit")
            if detail["host"]["max_threads"] > nproc:
                problems.append(f"{tag}: {detail['host']['max_threads']} threads "
                                f"on {nproc} hardware threads")
            if trace == 1:
                metrics = res["metrics"]
                for layer in ref["layers"]:
                    act = layer["activity"]
                    if w in layer["most_work_on"] and act and metrics[act]["value"] <= 0:
                        problems.append(f"{tag}: layer {layer['layer']} is active here "
                                        f"but {act} is 0")
                if not ref["workloads"][w]["rop_engine"] and metrics["rop.callbacks"]["value"] != 0:
                    problems.append(f"{tag}: rop.callbacks is not 0 without a ROP engine")
            print(f"{tag}: checked", flush=True)

    for msg in problems:
        print("FAIL " + msg)
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
