#!/usr/bin/env python3
"""gcalib benchmark: one workload, measured end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload svc-n4000 --seed 1 --seconds 10 --trace 0

It builds the real `gcad` and the benchmark driver (perfbench/driver.cpp)
in Release under .bench_build/, without touching the repository's own build
files, then runs the driver on the workload.  `--trace 0` prints the
end-to-end metrics, `--trace 1` the per-layer metrics.  Every answer is
checked against union-find.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the line before
it stamps the host and build.  Exit status: 0 when every answer was correct,
1 when one was not, 2 when nothing could be measured.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")

# Driver arguments per workload.  perfbench/README.md explains the choice.
WORKLOADS = {
    "svc-n4000": ["svc", "--n", "4000", "--m", "8000", "--pool", "64",
                  "--inflight", "8", "--clients", "4"],
    "svc-n48": ["svc", "--n", "48", "--m", "36", "--pool", "1024",
                "--inflight", "32", "--clients", "4"],
    "offline-1m": ["offline", "--n", "524288", "--m", "1048576", "--pool", "2"],
}
# Workloads whose traced run also measures the journal layer.  No measured
# run writes a journal: on a shared disk its cost swings threefold.
JOURNAL_LAYER = {"svc-n48"}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def lanes():
    """Solve lanes: half the usable hardware threads, at least one."""
    return max(1, len(os.sched_getaffinity(0)) // 2)


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build():
    """Configures (once) and builds gcad plus the driver; returns their paths."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no gcalib sources next to perfbench/; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if cmake_cache("CMAKE_BUILD_TYPE") != "Release":
            configure = ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja") and not os.path.exists(BUILD):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
        steps.append(["cmake", "--build", BUILD, "--target", "gcad",
                      "perfbench_driver", "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as failed:
                    sys.stderr.write("".join(failed.readlines()[-30:]))
                fail("build failed; full log in " + log_path)
    build_type = cmake_cache("CMAKE_BUILD_TYPE")
    if build_type != "Release":
        fail("refusing to record numbers from a %s build" % build_type)
    gcad = os.path.join(BUILD, "gcalib", "examples", "gcad")
    driver = os.path.join(BUILD, "perfbench_driver")
    for binary in (gcad, driver):
        if not os.access(binary, os.X_OK):
            fail("build produced no " + binary)
    return gcad, driver


def filesystem_type(path):
    """Type of the mounted filesystem holding `path`, from /proc/mounts."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                point = fields[1].replace("\\040", " ")
                inside = path == point or path.startswith(point.rstrip("/") + "/")
                if inside and len(point) >= len(best):
                    best, kind = point, fields[2]
    except OSError:
        pass
    return kind


def host_stamp(workload, seed, journal_dir):
    model, flags = "unknown", []
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and model == "unknown":
                    model = value.strip()
                if key in ("flags", "Features") and not flags:
                    flags = value.split()
    except OSError:
        pass
    simd = [f for f in ("sse4_2", "avx", "avx2", "avx512f", "avx512bw",
                        "asimd", "sve") if f in flags]
    compiler = cmake_cache("CMAKE_CXX_COMPILER") or "c++"
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "lanes": lanes(),
        "cpu": model,
        "simd": simd,
        "compiler": version,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "journal_fs": filesystem_type(journal_dir) if journal_dir else "n/a",
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be in [1, 60]")
    if args.seed < 0:
        fail("--seed must be non-negative")

    gcad, driver = build()
    command = [driver] + WORKLOADS[args.workload] + [
        "--gcad", gcad, "--lanes", str(lanes()), "--seconds", str(args.seconds),
        "--seed", str(args.seed), "--trace", str(args.trace)]
    journal_dir = None
    if args.trace and args.workload in JOURNAL_LAYER:
        journal_dir = os.path.join(BUILD_ROOT, "journal")
        os.makedirs(journal_dir, exist_ok=True)
        command += ["--journal",
                    os.path.join(journal_dir, "gcad-%d.gcqj" % os.getpid())]
    if args.trace:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]

    # Its own session, so that a timeout can stop the driver and its gcad.
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             cwd=ROOT, start_new_session=True)
    try:
        out, _ = child.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        fail("driver did not finish within 170 s")
    finally:
        if journal_dir:
            shutil.rmtree(journal_dir, ignore_errors=True)
    lines = out.splitlines()
    if child.returncode != 0 or not lines:
        sys.stdout.write(out)
        fail("driver exited with status %d" % child.returncode)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("driver printed no result line")

    for line in lines[:-1]:
        print(line)
    print("# host " + json.dumps(host_stamp(args.workload, args.seed, journal_dir)))
    correct = result["failed"] == 0 and result["attempted"] > 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
