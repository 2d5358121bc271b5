#!/usr/bin/env python3
"""The repo benchmark: builds perfbench from this checkout's sources and
runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), configured
as a CMake Release build; the first run builds, later runs reuse it.

Standard output ends with one JSON line {"correct", "attempted", "failed",
"metrics"}: the end-to-end metrics of BENCHMARK.json with --trace 0, the
per-layer ones with --trace 1 (a per-layer metric the workload does not
exercise reads 0 and is listed under "not_applicable" on the line before).
That line before is "# perfbench {...}" with the machine and build stamp,
sample counts and other facts the metrics rest on. The exit status is
nonzero when an answer was wrong, the build failed, or the sources are
missing.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("elect-advice", "decide-symmetric", "query-mix")
RUN_TIMEOUT_S = 175


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_id():
    """The git commit when the checkout is a git work tree, else a hash of
    the sources the benchmark builds."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and \
                Path(lines[0]).resolve() == ROOT:
            return "git:" + lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for p in sorted(base.rglob("*")):
            if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt", ".py"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "tree:" + h.hexdigest()[:16]


def build():
    if not (ROOT / "src" / "service" / "service.hpp").is_file():
        die(f"library sources not found under {ROOT / 'src'}")
    out = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build failed: " + " ".join(cmd))
    return out


def expected_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--inject-wrong", action="store_true",
                    help="gate self-test: corrupt one answer; must fail")
    args = ap.parse_args()

    out = build()
    end_to_end, per_layer = expected_metrics()
    cmd = [str(out / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", args.trace, "--work-dir", str(out),
           "--source-id", source_id()]
    if args.inject_wrong:
        cmd.append("--inject-wrong")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        die(f"no result (exit status {proc.returncode})", proc.returncode or 1)
    raw = json.loads(lines[-1])

    want = per_layer if args.trace == "1" else end_to_end
    metrics = raw["metrics"]
    for name, m in metrics.items():
        if want.get(name) != m["unit"]:
            die(f"metric {name} [{m['unit']}] is not in BENCHMARK.json", 1)
    missing = [n for n in want if n not in metrics]
    if args.trace == "0" and missing:
        die("end-to-end metrics missing: " + ", ".join(missing), 1)
    result = {
        "correct": raw["correct"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {n: metrics.get(n, {"value": 0, "unit": u})
                    for n, u in want.items()},
    }
    info = {"stamp": raw["stamp"], "info": raw["info"],
            "not_applicable": missing}
    print("# perfbench " + json.dumps(info))
    print(json.dumps(result), flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
