#!/usr/bin/env python3
"""Build and run the mpcgs benchmark program, perfbench.

    python3 perfbench/run.py --workload em_gmh --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. perfbench is configured from
perfbench/CMakeLists.txt into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) and built on first use; later runs only check that
it is up to date. The last line of stdout is
the result object; everything the build prints goes to stderr. See
perfbench/README.md for the workloads and metrics.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["em_gmh", "em_mh", "serve_online"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configure and bring perfbench up to date (both well under a second
    once built)."""
    os.makedirs(bdir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(bdir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        subprocess.run(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
        subprocess.run(["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(bdir, "perfbench")


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def declared_metrics():
    spec = benchmark_spec()
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_perfbench(exe, workload, seed, seconds, trace, tiny=False):
    """Run one workload; return (stdout lines, result, detail)."""
    work = os.path.join(os.path.dirname(exe), "work", workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--workdir", work]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench exited {proc.returncode} on {workload}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    return lines, result, detail


def check_result(result, detail, expected):
    """The result line carries exactly the declared metrics, with their units,
    and the detail line gives each one's sample count."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    got = result.get("metrics", {})
    if set(got) != set(expected):
        problems.append(f"metrics differ: missing {sorted(set(expected) - set(got))}, "
                        f"extra {sorted(set(got) - set(expected))}")
    for name, unit in expected.items():
        m = got.get(name)
        if m is None:
            continue
        if m.get("unit") != unit or not isinstance(m.get("value"), (int, float)):
            problems.append(f"{name}: {m}")
        if not isinstance(detail["metrics"].get(name, {}).get("n"), int):
            problems.append(f"{name}: no sample count")
    return problems


def selftest():
    """Every workload, timed and traced, at the tiny shape: every declared
    metric is emitted with its unit and sample count, every check passes
    and the Chrome trace loads."""
    exe = build(build_dir())
    end_to_end, per_layer = declared_metrics()
    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            _, result, detail = run_perfbench(exe, workload, 1, 1, trace, tiny=True)
            problems = check_result(result, detail, per_layer if trace else end_to_end)
            if not result.get("correct") or result.get("failed") != 0:
                problems.append(f"failed checks: {detail.get('failures')}")
            if trace == 0 and result["metrics"]["ops_ok_frac"]["value"] != 1:
                problems.append("ops_ok_frac is not 1")
            if trace == 1:
                with open(detail["provenance"]["trace_file"]) as f:
                    events = json.load(f)["traceEvents"]
                if not any(e["cat"].startswith("bench.") for e in events):
                    problems.append("trace has no benchmark spans")
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"selftest {workload} trace={trace}: {status}")
            failures += problems
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int,
                    help="measuring time of a timed run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        ap.error("--workload is required")

    seconds = args.seconds or benchmark_spec()["run_seconds"]
    exe = build(build_dir())
    end_to_end, per_layer = declared_metrics()
    lines, result, detail = run_perfbench(exe, args.workload, args.seed, seconds, args.trace)
    problems = check_result(result, detail, per_layer if args.trace else end_to_end)
    if problems:
        print("\n".join(lines[:-1]), file=sys.stderr)
        print("perfbench: malformed result: " + "; ".join(problems), file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.SubprocessError, OSError, RuntimeError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
