#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload train|serve_hot|serve_cold \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds the project libraries and the
benchmark program with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs the workload in its own process under a
watchdog, prints the program's report and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json; with --trace 1 a traced run of
every workload (the named one for --seconds, the others for a quarter of it)
yields the per-layer metrics. Exits non-zero on a build failure, a wrong
output, a failed operation or a run the watchdog had to kill.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train", "serve_hot", "serve_cold")
RUN_BUDGET_S = 170  # every run must end within 180 s after the build


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures and builds the perfbench target; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no project sources next to perfbench/ (src/CMakeLists.txt)")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                die("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def thread_states(pid):
    """One line per thread of a live process: tid, name, state, wait channel."""
    lines = []
    task_dir = "/proc/%d/task" % pid
    try:
        tids = sorted(os.listdir(task_dir), key=int)
    except OSError:
        return ["(process gone)"]
    for tid in tids:
        def read(name):
            try:
                with open(os.path.join(task_dir, tid, name)) as f:
                    return f.read().strip()
            except OSError:
                return "?"
        stat = read("stat")  # "pid (comm) state ...": comm may hold spaces
        state = stat[stat.rfind(")") + 2:].split(" ", 1)[0] if ")" in stat \
            else "?"
        lines.append("tid %s %-16s state %s wchan %s"
                     % (tid, read("comm"), state, read("wchan")))
    return lines


def run_one(binary, workload, seed, seconds, trace, out_dir, deadline):
    """Runs one workload process; returns its parsed RESULT record."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", "1" if trace else "0",
           "--out_dir", out_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        states = thread_states(proc.pid)
        proc.kill()
        out, err = proc.communicate()
        phases = [l for l in err.splitlines() if l.startswith("phase ")]
        print("watchdog: %s killed after its time limit, last %s"
              % (workload, phases[-1] if phases else "phase unknown"))
        for line in states:
            print("watchdog:   " + line)
        return {"workload": workload, "correct": False, "attempted": 1,
                "failed": 1, "metrics": {}, "errors": ["watchdog kill"]}
    record = None
    for line in out.splitlines():
        if line.startswith("RESULT "):
            record = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if record is None or proc.returncode not in (0, 1):
        sys.stderr.write(err[-4000:])
        print("error: %s exited with code %d and no result"
              % (workload, proc.returncode))
        return {"workload": workload, "correct": False, "attempted": 1,
                "failed": 1, "metrics": {}, "errors": ["crashed"]}
    return record


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        die("--seconds must be positive and --seed non-negative")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(base, "perfbench"))
    binary = build(build_dir)
    # Scratch space of the workload processes (checkpoints, traces); left
    # behind only by a killed run, so it starts empty.
    out_dir = os.path.join(build_dir, "out")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    deadline = time.time() + RUN_BUDGET_S
    if args.trace:
        # The ledger needs every workload: the named one gets the full
        # window, the other two a quarter of it, so a traced run stays well
        # inside the time limit.
        plan = [(args.workload, args.seconds)] + [
            (w, max(2.0, args.seconds / 4))
            for w in WORKLOADS if w != args.workload]
    else:
        plan = [(args.workload, args.seconds)]
    records = [run_one(binary, w, args.seed, s, args.trace, out_dir, deadline)
               for w, s in plan]

    main_record = records[0]
    correct = all(r["correct"] for r in records)
    metrics = {}
    for r in records:
        metrics.update(r["metrics"])
    print("%s: attempted %d, completed %d, failed %d, in flight at close %d"
          % (args.workload, main_record["attempted"],
             main_record.get("completed", 0), main_record["failed"],
             main_record.get("in_flight", 0)))
    result = {}
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got["value"] is None:
            print("error: metric %s was not measured" % m["name"])
            correct = False
        elif got["unit"] != m["unit"]:
            print("error: metric %s has unit %s, expected %s"
                  % (m["name"], got["unit"], m["unit"]))
            correct = False
        else:
            result[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    for name, got in metrics.items():
        if got["value"] is None:
            continue
        note = "  moves: " + got["moves"] if got.get("moves") else ""
        if name not in result:
            note += "  (reported only: too noisy to bound, see NOTES.md)"
        print("  %-40s %18.6f %-8s%s" % (name, got["value"], got["unit"], note))
    for r in records:
        for e in r.get("errors", []):
            print("error: %s: %s" % (r["workload"], e))
    print(json.dumps({"correct": correct,
                      "attempted": int(main_record["attempted"]),
                      "failed": int(main_record["failed"]),
                      "metrics": result}))
    return 0 if correct and main_record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
