#!/usr/bin/env python3
"""Build and run the wcs repo benchmark (wcs-perfbench).

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload polybench-warp|sweep-grid|serve-mixed \
      --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which builds the wcs
library from the checkout's sources) under $CARGO_TARGET_DIR, default
.bench_build; later calls only rebuild what changed. Build output goes to
stderr. The benchmark's own output goes to stdout; its last line is the
result object. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dirs():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if os.path.isabs(target):
        target = os.path.relpath(target, ROOT)
    # Relative to the checkout root, which is the benchmark's working
    # directory: Unix socket paths must stay short.
    return os.path.join(target, "perfbench"), os.path.join(target, "perfbench-work")


def build():
    for need in ("CMakeLists.txt", "src", os.path.join("include", "wcs")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no wcs sources next to perfbench/ (missing %s); run from a "
                 "checkout of the repository" % need)
    build_dir, work_dir = build_dirs()
    abs_build = os.path.join(ROOT, build_dir)
    if not os.path.exists(os.path.join(abs_build, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", abs_build, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    cmd = ["cmake", "--build", abs_build, "--target", "wcs-perfbench", "-j", "4"]
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    os.makedirs(os.path.join(ROOT, work_dir), exist_ok=True)
    return os.path.join(abs_build, "wcs-perfbench"), work_dir


def run_bench(exe, work_dir, args, reference=None):
    cmd = [exe] + args + [
        "--reference", reference or os.path.join("perfbench", "reference.tsv"),
        "--workdir", work_dir,
    ]
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    return p.returncode, p.stdout


def last_json(out):
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def self_test(exe, work_dir):
    ok = True

    def expect(cond, what):
        nonlocal ok
        print(("ok   " if cond else "FAIL ") + what)
        ok = ok and cond

    rc, out = run_bench(exe, work_dir, ["--self-test"])
    sys.stdout.write(out)
    expect(rc == 0, "wcs-perfbench --self-test")

    # The same seed gives the same workload properties; a corrupted
    # reference entry makes the run fail.
    args = ["--workload", "polybench-warp", "--seed", "5", "--seconds", "0",
            "--trace", "0"]
    rc, good = run_bench(exe, work_dir, args)
    res = last_json(good)
    expect(rc == 0 and res and res["failed"] == 0 and res["correct"],
           "polybench-warp seed 5 passes its reference check")
    rc2, again = run_bench(exe, work_dir, args)
    props = [l for l in good.splitlines() if l.startswith("property")]
    expect(props and props == [l for l in again.splitlines()
                               if l.startswith("property")],
           "the same seed prints the same workload properties")

    key = "LARGE|2mm|L1[4KiB 8-way LRU 64B-lines WA]"
    corrupt = os.path.join(work_dir, "reference-corrupt.tsv")
    hit = False
    with open(os.path.join(HERE, "reference.tsv")) as src, \
            open(os.path.join(ROOT, corrupt), "w") as dst:
        for line in src:
            f = line.rstrip("\n").split("\t")
            if f[0] == key:
                f[2] = str(int(f[2]) + 1)
                hit = True
            dst.write("\t".join(f) + "\n")
    expect(hit, "reference holds " + key)
    rc, out = run_bench(exe, work_dir, args, reference=corrupt)
    res = last_json(out)
    expect(rc != 0 and res is not None and res["failed"] > 0
           and not res["correct"],
           "a corrupted reference entry gives failed > 0 and a non-zero exit")
    print("self-test " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and a.workload not in ("polybench-warp", "sweep-grid",
                                              "serve-mixed"):
        fail("unknown or missing --workload")
    exe, work_dir = build()
    if a.self_test:
        return self_test(exe, work_dir)
    rc, out = run_bench(exe, work_dir, [
        "--workload", a.workload, "--seed", str(a.seed),
        "--seconds", str(a.seconds), "--trace", str(a.trace)])
    sys.stdout.write(out)
    sys.stdout.flush()
    return rc


if __name__ == "__main__":
    sys.exit(main())
