#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--out FILE]
    python3 perfbench/run.py --all [--seed N] [--seconds S]

The first form runs one workload and prints, as its last stdout line,
the result object {"correct", "attempted", "failed", "metrics"}: every
end-to-end metric of BENCHMARK.json with --trace 0, every per-layer
metric with --trace 1. The lines before it record the host, the build
and the simulated-result digest. --out appends the full record (host,
digest, both metric sets, wall-clock start time) as one JSON line,
for compare.py.

--all runs every workload in one process with tracing, prints every
end-to-end metric with its unit and failed_share, then the per-layer
metrics, and checks that fig12-sweep gives the same digest at --jobs 1.

Run from the repository root. The simulator is built from ../src into
$CARGO_TARGET_DIR (default .bench_build) with CMake in Release mode.
"""

import argparse
import fcntl
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
ALL_TIMEOUT_S = 900
BUILD_TIMEOUT_S = 850


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        die("BENCHMARK.json not found at the repository root")
    with open(path) as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure and build once per checkout; incremental afterwards."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("simulator sources (src/) are missing; nothing to build")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(os.path.join(out, ".lock"), "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cmds = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "-j", str(os.cpu_count() or 1)]]
        if os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            cmds = cmds[1:]
        for cmd in cmds:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                die("build failed: %s" % e, 1)
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                die("build failed (see %s)" % log_path, 1)
    return out


def build_info(out):
    info = {"build_type": "?", "cxx_flags": "?"}
    try:
        with open(os.path.join(out, "CMakeCache.txt")) as f:
            cache = dict(line.rstrip("\n").split("=", 1)
                         for line in f if "=" in line and not line.startswith(("//", "#")))
    except OSError:
        return info
    bt = cache.get("CMAKE_BUILD_TYPE:STRING", "")
    info["build_type"] = bt or "(none)"
    info["cxx_flags"] = (cache.get("CMAKE_CXX_FLAGS:STRING", "") + " " +
                         cache.get("CMAKE_CXX_FLAGS_%s:STRING" % bt.upper(), "")).strip()
    info["unoptimized"] = "-O" not in info["cxx_flags"] or "-O0" in info["cxx_flags"]
    return info


def source_digest():
    """sha256 over the sources the benchmark builds and runs."""
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown (not a git checkout)"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def loadavg():
    try:
        return [round(x, 2) for x in os.getloadavg()]
    except OSError:
        return []


def cpu_ticks():
    """(steal, total) jiffies over all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def steal_share(start, end):
    """Share of CPU time the hypervisor gave to other guests."""
    if not start or not end or end[1] <= start[1]:
        return None
    return round((end[0] - start[0]) / (end[1] - start[1]), 4)


def run_binary(out, args, workdir, timeout=RUN_TIMEOUT_S):
    """Run perfbench in its own process group; return its @result lines."""
    cmd = [os.path.join(out, "perfbench"), "--daemon",
           os.path.join(out, "ckesim-campaignd"), "--workdir", workdir] + args
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    results = []
    deadline = time.monotonic() + timeout
    try:
        for line in proc.stdout:
            if line.startswith("@result "):
                results.append(json.loads(line[len("@result "):]))
            else:
                print(line, end="", flush=True)
            if time.monotonic() > deadline:
                raise subprocess.TimeoutExpired(cmd, timeout)
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        rc = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if rc != 0:
        die("benchmark binary %s" % ("timed out" if rc is None else "exited with %d" % rc), 1)
    return results


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--out")
    a = ap.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if a.all == bool(a.workload):
        die("give exactly one of --workload NAME or --all")
    if a.all and a.out:
        die("--out records single-workload runs; it does not combine with --all")
    if a.workload and a.workload not in names:
        die("unknown workload %r (known: %s)" % (a.workload, ", ".join(names)))
    seconds = a.seconds if a.seconds else spec["run_seconds"]
    if seconds <= 0:
        die("--seconds must be positive")

    host = {"cpu": cpu_model(), "nproc": os.cpu_count(), "load_start": loadavg()}
    out = build()
    host.update(build_info(out))
    host["commit"] = commit()
    host["source_digest"] = source_digest()

    started = time.time()
    ticks = cpu_ticks()
    workdir = os.path.join(out, "run-%d" % os.getpid())
    os.makedirs(workdir)
    try:
        if a.all:
            args = ["--workload", "all", "--trace", "1"]
        else:
            args = ["--workload", a.workload, "--trace", str(a.trace)]
        args += ["--seed", str(a.seed), "--seconds", repr(seconds)]
        results = run_binary(out, args, workdir,
                             ALL_TIMEOUT_S if a.all else RUN_TIMEOUT_S)
        jobs1 = None
        if a.all:
            jobs1 = run_binary(out, ["--workload", "fig12-sweep", "--trace", "0",
                                     "--seed", str(a.seed), "--seconds", "1",
                                     "--jobs", "1"], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    host["load_end"] = loadavg()
    host["steal_share"] = steal_share(ticks, cpu_ticks())

    print("# host " + json.dumps(host, sort_keys=True))
    if host.get("unoptimized"):
        print("# WARNING: unoptimized build; timings are not comparable")
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}

    correct = True
    for r in results:
        print("# digest %s %s" % (r["workload"], r["digest"]))
        if set(r["e2e"]) != set(e2e_units) or set(r["layer"]) != set(layer_units):
            print("# metric set differs from BENCHMARK.json: %s" % sorted(
                set(r["e2e"]) ^ set(e2e_units) | set(r["layer"]) ^ set(layer_units)))
            correct = False
        correct = correct and r["failed"] == 0
        if a.out:
            rec = {"workload": r["workload"], "seed": a.seed, "trace": a.trace,
                   "seconds": seconds, "started": started,
                   "host": host, "digest": r["digest"],
                   "attempted": r["attempted"], "failed": r["failed"],
                   "e2e": r["e2e"], "layer": r["layer"]}
            with open(a.out, "a") as f:
                f.write(json.dumps(rec, sort_keys=True) + "\n")

    if a.all:
        print_all(results, jobs1, e2e_units, layer_units)
        sys.exit(0 if correct else 1)

    if len(results) != 1:
        die("benchmark binary produced %d results" % len(results), 1)
    r = results[0]
    chosen, units = (r["layer"], layer_units) if a.trace else (r["e2e"], e2e_units)
    metrics = {k: {"value": chosen.get(k, -1.0), "unit": u} for k, u in units.items()}
    print(json.dumps({"correct": correct, "attempted": r["attempted"],
                      "failed": r["failed"], "metrics": metrics}))


def print_all(results, jobs1, e2e_units, layer_units):
    print("\nend-to-end (untraced work):")
    for r in results:
        for k in sorted(e2e_units):
            print("  %-14s %-18s %14.6g %s" % (r["workload"], k, r["e2e"][k], e2e_units[k]))
        print("  %-14s %-18s %14.6g %s   (%d of %d checks failed)" % (
            r["workload"], "failed_share", r["layer"]["failed_share"], "ratio",
            r["failed"], r["attempted"]))
    print("\nper-layer (traced run; -1 = not measured on this workload):")
    for r in results:
        for k in sorted(layer_units):
            if r["layer"][k] != -1:
                print("  %-14s %-34s %14.6g %s" % (r["workload"], k, r["layer"][k], layer_units[k]))
    fig = [r for r in results if r["workload"] == "fig12-sweep"]
    if fig and jobs1:
        same = jobs1[0]["digest"] == fig[0]["digest"]
        print("\nfig12-sweep digest at --jobs 1 %s at --jobs %d: %s" % (
            "equals" if same else "DIFFERS FROM", os.cpu_count() or 1, jobs1[0]["digest"]))
        if not same:
            sys.exit(1)


if __name__ == "__main__":
    main()
