#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload msb-table3 --seed 1 --seconds 15 --trace 0

It builds perfbench/ (a Go module of its own that imports the repository
through a relative replace) into .bench_build/, keeping the Go build cache,
temporary files and checkpoints there too, then runs the binary. The last line
of standard output is the result object; build output goes to standard error.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("msb-table3", "site-incident", "dist-plane", "coordd-mix")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="traced pass: write every span as JSON lines here")
    args = ap.parse_args()

    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "go.mod")) or not os.path.isfile(os.path.join(bench, "go.mod")):
        sys.exit("perfbench: run from the repository root; its sources are missing here")
    out = os.path.join(root, ".bench_build")
    home = os.path.join(out, "home")
    tmp = os.path.join(out, "tmp")
    for d in (home, tmp):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOMODCACHE": os.path.join(out, "gomodcache"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "",
        "GOWORK": "off",
    })
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                           stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    work = os.path.join(out, "work-%d" % os.getpid())
    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-workdir", work, "-goldens", os.path.join(bench, "goldens.json")]
    if args.spans:
        cmd += ["-spans", args.spans]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
