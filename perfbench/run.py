#!/usr/bin/env python3
"""Build and run the perfbench benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark binary is built from source
(perfbench/CMakeLists.txt, Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset. The last line of standard output
is the result: {"correct", "attempted", "failed", "metrics"}, where the
metrics are the end-to-end set of BENCHMARK.json with --trace 0 and its
per-layer set with --trace 1. Every line before it is a human report.

Each run also records the schedule fingerprint (a hash of every epoch's
rounds, messages and bits plus the model-cost metrics) under
<build>/fingerprints/<binary hash>; a later run of the same binary,
workload and seed that disagrees with it fails.
"""
import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170
# Units of the report-only figures (the binary's "info" block).
INFO_UNITS = {
    "epoch_ms_p50": "ms",
    "epoch_ms_tail": "ms",
    "epoch_ms_tail.percentile": "%",
    "ops_per_s.window": "1/s",
    "window_s": "s",
    "host.ref_ms_start": "ms",
    "host.ref_ms_end": "ms",
    "sim.round_us_tail.percentile": "%",
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "skeap", "skeap_system.hpp")):
        fail("library sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def compiler_id(out):
    try:
        with open(os.path.join(out, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    cxx = line.split("=", 1)[1].strip()
                    ver = subprocess.run([cxx, "--version"], capture_output=True,
                                         text=True).stdout.splitlines()
                    return ver[0] if ver else cxx
    except OSError:
        pass
    return "unknown"


def source_commit():
    """The git commit when run inside a repository, else a hash of the
    sources the binary is built from."""
    res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    if res.returncode == 0:
        return res.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def check_fingerprint(out, workload, seed, fingerprint):
    """True when this run's schedule matches every earlier run of the same
    binary, workload and seed (the first run records it)."""
    with open(os.path.join(out, "perfbench"), "rb") as f:
        binary = hashlib.sha256(f.read()).hexdigest()[:16]
    d = os.path.join(out, "fingerprints", binary)
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, f"{workload}-{seed}.txt")
    if os.path.isfile(path):
        with open(path) as f:
            return f.read().strip() == fingerprint
    with open(path, "w") as f:
        f.write(fingerprint + "\n")
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    out = build_dir()
    build(out)
    try:
        res = subprocess.run(
            [os.path.join(out, "perfbench"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(res.stderr)
    lines = res.stdout.splitlines()
    if not lines:
        fail(f"benchmark printed nothing (exit {res.returncode})")
    for line in lines[:-1]:
        print(line)
    try:
        raw = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"benchmark ended without a result (exit {res.returncode})")

    host = {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "compiler": compiler_id(out),
        "build_type": "Release",
        "commit": source_commit(),
        "seed": args.seed,
        "ref_ms_start": raw["info"]["host.ref_ms_start"],
        "ref_ms_end": raw["info"]["host.ref_ms_end"],
    }
    print("host: " + json.dumps(host))
    print(f"fingerprint: {raw['fingerprint']}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(INFO_UNITS)
    for k, v in sorted(raw["info"].items()):
        print(f"  info {k} = {v:.6g} {units.get(k, '')}".rstrip())
    for k, v in sorted(raw["metrics"].items()):
        print(f"  {k} = {v:.6g} {units.get(k, '')}".rstrip())

    correct = raw["correct"] and res.returncode == 0
    if not check_fingerprint(out, args.workload, args.seed, raw["fingerprint"]):
        print(f"FINGERPRINT MISMATCH: {raw['fingerprint']} differs from an "
              f"earlier run of {args.workload} at seed {args.seed}")
        correct = False
    metrics = {}
    for m in declared:
        if m["name"] not in raw["metrics"]:
            fail(f"metric {m['name']} not produced")
        metrics[m["name"]] = {"value": raw["metrics"][m["name"]], "unit": m["unit"]}
    failed = raw["failed"] if correct else raw["attempted"]
    if not correct and "completed_op_frac" in metrics:
        metrics["completed_op_frac"]["value"] = 0.0
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
