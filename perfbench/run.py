#!/usr/bin/env python3
"""Build and run the repository benchmark.

One measurement:

    python3 perfbench/run.py --workload sharded-gc --seed 1 --seconds 12 --trace 0

builds the library tree under src/ and the benchmark under perfbench/ into
.bench_build/ (or $CARGO_TARGET_DIR) with CMake, runs it, and
relays its output: one line per metric, a provenance line, and last a
JSON line {"correct", "attempted", "failed", "metrics"}. --trace 0 gives
the end-to-end metrics, --trace 1 the per-layer metrics of a traced run.

Every metric of every workload, with units and output checks:

    python3 perfbench/run.py --all [--seed 1] [--seconds 12]

Run both from the root of the checkout.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["insitu-ipca", "sharded-gc"]


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configure once, then build incrementally. Tool output goes to stderr."""
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", jobs,
                  "--target", "deisa_perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("benchmark build failed: " + " ".join(cmd))
    return bdir / "deisa_perfbench"


def commit_id():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def measure(binary, workload, seed, seconds, trace, commit):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--commit", commit]
    r = subprocess.run(cmd, capture_output=True, text=True)
    sys.stderr.write(r.stderr)
    return r.returncode, r.stdout


def report_all(binary, seed, seconds, commit):
    """Every metric of every workload, on both runs, with its unit."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            rc, out = measure(binary, workload, seed, seconds, trace, commit)
            lines = out.strip().splitlines()
            if rc != 0 or not lines:
                print(f"{workload} trace={trace}: deisa_perfbench exited with {rc}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            print(f"== {workload} --trace {trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for line in lines[:-1]:
                if not line.startswith("metric "):
                    print("   " + line)
            for name, m in result["metrics"].items():
                print(f"   {name:44s} {m['value']:>22.9g} {m['unit']}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload with --trace 0 and 1")
    args = ap.parse_args()
    if not args.all and args.workload is None:
        ap.error("--workload or --all is required")

    binary = build()
    commit = commit_id()
    if args.all:
        return report_all(binary, args.seed, args.seconds, commit)
    rc, out = measure(binary, args.workload, args.seed, args.seconds,
                      args.trace, commit)
    sys.stdout.write(out)
    return rc


if __name__ == "__main__":
    sys.exit(main())
