#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload paper_bfs --seed 1 --seconds 20 --trace 0

Run from the repository root.  It builds the library and the harness
(perfbench/CMakeLists.txt) under .bench_build/, runs the workload for
--seconds of timed passes at nproc threads, checks the outputs, prints
the host block and every metric by name with its unit, and prints as
its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--workload all runs the four workloads in turn, each with its own
report and result line.  --trace 0 reports the end-to-end metrics of
BENCHMARK.json; --trace 1 alternates traced and untraced passes and
reports the per-layer metrics.  Workloads, metrics and the layer ->
end-to-end predictions are documented in perfbench/spec.json.  The exit
code is 0 only when every check passed.  --record stores this seed's
deterministic outputs in perfbench/expected.json (for maintainers; never
used in a timed run).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import analysis  # noqa: E402

WORKLOADS = ("paper_bfs", "replay_long", "explore_million", "serve_mixed")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
# A run must end within 180 s of the build; the harness gets 170 of them.
RUN_LIMIT_S = 170.0


def log(message):
    print(message, file=sys.stderr, flush=True)


def fail(message, code=2):
    log("perfbench: " + message)
    sys.exit(code)


def nproc():
    return len(os.sched_getaffinity(0))


def run_quiet(cmd, timeout):
    """Runs cmd with its output on stderr; fails the benchmark on error."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        log(proc.stdout.decode(errors="replace")[-4000:])
        fail(f"failed ({proc.returncode}): {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("src/CMakeLists.txt not found: run from the repository root")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    run_quiet(["cmake", "--build", BUILD_DIR, "--target", "gmd_perfbench",
               "-j", str(nproc())], timeout=840)
    return os.path.join(BUILD_DIR, "gmd_perfbench")


def source_identity():
    """git rev when the checkout is a repository, and always a digest of
    src/ so results name the code they measured."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.TimeoutExpired):
        rev = "none"
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk("src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return rev, digest.hexdigest()[:16]


def run_harness(binary, workload, args):
    os.makedirs(".bench_build", exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=".bench_build")
    out = os.path.join(work, "result.json")
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--out", out]
    try:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=RUN_LIMIT_S)
        except subprocess.TimeoutExpired:
            fail(f"{workload} did not finish within {RUN_LIMIT_S:.0f} s", 1)
        if proc.returncode != 0:
            fail(f"{workload} failed with exit code {proc.returncode}", 1)
        with open(out) as f:
            return json.load(f)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_workload(workload, args, binary, bench, spec, source):
    """Runs one workload, prints its report and result line, and returns
    whether every check passed."""
    doc = run_harness(binary, workload, args)

    checks = list(doc["checks"])
    expected_path = os.path.join(HERE, "expected.json")
    with open(expected_path) as f:
        expected = json.load(f)
    want = expected.get(workload, {}).get(str(args.seed))
    if want is not None:
        checks += analysis.compare_expected(doc["record"], want,
                                            spec["r2_tolerance"])
    if args.record:
        expected.setdefault(workload, {})[str(args.seed)] = doc["record"]
        with open(expected_path, "w") as f:
            json.dump(expected, f, indent=1, sort_keys=True)
            f.write("\n")

    host = dict(doc["host"])
    host.update({"git_rev": source[0], "src_digest": source[1],
                 "calibration_s": analysis.median(host["calibration_s"])})
    print("host " + json.dumps(host, sort_keys=True))
    print(f"workload {workload} seed {args.seed} trace {args.trace}: "
          f"{len(doc['passes'])} passes, {len(doc['setup_s'])} set-ups, "
          f"threads {doc['threads']}")
    for c in checks:
        if not c["ok"]:
            print(f"CHECK FAILED {c['name']}: {c['detail']}")

    if args.trace:
        computed = analysis.per_layer(doc)
        wanted = bench["per_layer"]
    else:
        computed = analysis.end_to_end(doc)
        wanted = bench["end_to_end"]
        for name, value in analysis.workload_figures(doc).items():
            unit = spec["figures"].get(name, "")
            print(f"  {name:<34} {value:>16.6g} {unit}")
    metrics = {}
    for m in wanted:
        value = computed[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<34} {value:>16.6g} {m['unit']}")

    correct = all(c["ok"] for c in checks)
    attempted, failed = analysis.run_counts(doc)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return correct


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile("BENCHMARK.json"):
        fail("BENCHMARK.json not found: run from the repository root")
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "spec.json")) as f:
        spec = json.load(f)

    binary = build()
    source = source_identity()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    correct = [run_workload(w, args, binary, bench, spec, source)
               for w in workloads]
    sys.exit(0 if all(correct) else 1)


if __name__ == "__main__":
    main()
