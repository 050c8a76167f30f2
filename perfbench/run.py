#!/usr/bin/env python3
"""Entry point of the repository benchmark (see README.md beside this file).

Builds the perfbench binary from the sources in this checkout (Release,
into .bench_build/perfbench), runs one workload, and checks that the
result line names exactly the metrics BENCHMARK.json declares.

  python3 perfbench/run.py --workload serve_cold --seed 7 --seconds 20 --trace 0
  python3 perfbench/run.py --all --seed 7      # every workload, both modes, as a table
  python3 perfbench/run.py --list              # every metric: name, unit, direction
  python3 perfbench/run.py --self-check        # quick mode of every workload

Run from anywhere; paths are resolved from this file. The last line of
standard output is the JSON result; build logs go to standard error.
Exits non-zero when the build fails, a run fails an output check or a
state assertion, or the metrics do not match BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = BUILD_DIR / "work"
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found", 2)
    return json.loads(path.read_text())


def build():
    """Configures once, then rebuilds the binary (a no-op when current)."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no ThermoSched sources in {ROOT}", 2)
    if not shutil.which("cmake"):
        fail("cmake not found", 2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not any((BUILD_DIR / f).is_file() for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    compile_ = ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                "-j", jobs]
    if subprocess.run(compile_, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return BUILD_DIR / "perfbench"


def commit():
    if not (ROOT / ".git").exists() or not shutil.which("git"):
        return "none"
    p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return p.stdout.strip() if p.returncode == 0 else "none"


def source_digest():
    """SHA-256 over the library and benchmark sources, so a result names
    the code it measured even in a checkout without git."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in (ROOT / "src", BENCH_DIR):
        files += [p for p in top.rglob("*") if p.is_file()]
    for path in sorted(files):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_workload(exe, workload, seed, seconds, trace, quick=False):
    """Runs the binary once; returns (exit code, stdout lines)."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(WORK_DIR), "--commit", commit(),
           "--source-digest", source_digest()]
    if quick:
        cmd.append("--quick")
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    return p.returncode, normalize_counts(p.stdout.splitlines())


def check_result(spec, lines, trace):
    """Problems with a result line; empty when it matches BENCHMARK.json."""
    if not lines:
        return ["no output"]
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return ["last line is not JSON"]
    if set(result) != RESULT_KEYS:
        return [f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}"]
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    problems = []
    for name in sorted(set(want) - set(got)):
        problems.append(f"metric {name} declared but not reported")
    for name in sorted(set(got) - set(want)):
        problems.append(f"metric {name} reported but not declared")
    for name in sorted(set(want) & set(got)):
        if want[name] != got[name]:
            problems.append(f"metric {name}: unit {got[name]} != {want[name]}")
        if not isinstance(result["metrics"][name].get("value"), (int, float)):
            problems.append(f"metric {name}: value is not a number")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(f"{key} is not a whole number")
    if result["attempted"] < 1:
        problems.append("attempted < 1")
    return problems


def normalize_counts(lines):
    """The binary's JSON writer prints numbers in shortest form, so a round
    count such as 1000000 comes out as 1e+06. Rewrites the result line
    with attempted and failed as integers; other lines are left alone."""
    if not lines:
        return lines
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return lines
    if not isinstance(result, dict):
        return lines
    for key in ("attempted", "failed"):
        value = result.get(key)
        if isinstance(value, float) and value.is_integer():
            result[key] = int(value)
    return lines[:-1] + [json.dumps(result, separators=(",", ":"))]


def list_metrics(spec):
    print(f"{'metric':34} {'unit':6} {'better':7} bound")
    for m in spec["end_to_end"]:
        print(f"{m['name']:34} {m['unit']:6} {m['better']:7} {m['bound']}")
    for m in spec["per_layer"]:
        print(f"{m['name']:34} {m['unit']:6} {m['better']:7} per-layer")


def run_all(spec, exe, seed, seconds, quick):
    """Every workload in both modes, printed by name with unit and
    direction. Returns the number of runs that failed."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, lines = run_workload(exe, workload, seed, seconds, trace, quick)
            problems = check_result(spec, lines, trace)
            if code != 0 or problems:
                failures += 1
                print(f"{workload} trace={trace}: FAILED (exit {code}) "
                      + "; ".join(problems))
                continue
            result = json.loads(lines[-1])
            for name, m in result["metrics"].items():
                print(f"{workload:13} {name:34} {m['value']:<22.6g} "
                      f"{m['unit']:6} {better[name]}")
    return failures


def self_check(spec, exe):
    """Quick mode of every workload; checks the emitted metric names and
    units against BENCHMARK.json. Returns the number of problems."""
    problems = 0
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    if len(names) != len(set(names)):
        print("self-check: BENCHMARK.json repeats a metric name")
        problems += 1
    if not any(m["name"] == "setup_s" for m in spec["end_to_end"]):
        print("self-check: BENCHMARK.json has no setup_s")
        problems += 1
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, lines = run_workload(exe, workload, 1, 1, trace, quick=True)
            found = check_result(spec, lines, trace)
            if code != 0:
                found.append(f"exit {code}")
            status = "ok" if not found else "; ".join(found)
            print(f"self-check {workload} trace={trace}: {status}")
            problems += len(found)
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small inputs (what --self-check runs)")
    parser.add_argument("--all", action="store_true",
                        help="run every workload in both modes")
    parser.add_argument("--list", action="store_true",
                        help="print every metric with unit and direction")
    parser.add_argument("--self-check", action="store_true",
                        help="quick mode of every workload, names checked")
    args = parser.parse_args()

    spec = load_spec()
    if args.list:
        list_metrics(spec)
        return 0
    single = not (args.self_check or args.all)
    if single and args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"--workload must be one of {[w['name'] for w in spec['workloads']]}", 2)
    exe = build()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.self_check:
        return 1 if self_check(spec, exe) else 0
    if args.all:
        return 1 if run_all(spec, exe, args.seed, seconds, args.quick) else 0

    code, lines = run_workload(exe, args.workload, args.seed, seconds,
                               args.trace, args.quick)
    problems = check_result(spec, lines, args.trace)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print("\n".join(lines))
    if code != 0:
        return code
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
