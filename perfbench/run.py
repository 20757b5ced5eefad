#!/usr/bin/env python3
"""Build and run the repository benchmark (dbi_perfbench) for one workload.

    python3 perfbench/run.py --workload lake_campaign --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. It configures perfbench/ (which
pulls in the repository one directory up) into $CARGO_TARGET_DIR or
.bench_build, builds the benchmark and the dbid daemon, then runs the
benchmark with its scratch files under .bench_run/ and, with --trace 1,
its span JSON under .bench_out/. The last line of stdout is the
benchmark's JSON result. --smoke shrinks every input to a tiny size.
Build output goes to stderr. Exit code 0 means correct outputs.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lake_campaign", "paper_roundtrip", "serve_mixed")
RUN_LIMIT_S = 170  # the benchmark's own wall limit per run, builds excluded


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds dbi_perfbench and dbid; returns the
    two binary paths."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no repository sources beside perfbench/; nothing to build")
    try:
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", build_dir, "-j4", "--target",
                        "dbi_perfbench", "dbid"],
                       stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)
    return (os.path.join(build_dir, "dbi_perfbench"),
            os.path.join(build_dir, "repo", "dbid"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs (the benchmark's own tests)")
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    bench, dbid = build(build_dir)

    # Relative paths keep the dbid socket path short (AF_UNIX limit).
    workdir = os.path.join(".bench_run", "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(os.path.join(ROOT, workdir), exist_ok=True)
    cmd = [bench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--dbid", dbid, "--workdir", workdir]
    if args.trace:
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        cmd += ["--spans", os.path.join(
            ".bench_out", "spans-%s-seed%d.json" % (args.workload, args.seed))]
    if args.smoke:
        cmd.append("--smoke")

    # Own process group: a timeout or an exit takes down every process
    # the benchmark started (dbid included).
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)
    t0 = time.monotonic()
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("benchmark exceeded %d s and was stopped" % RUN_LIMIT_S)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    print("run.py: %s finished in %.1f s (exit %d)"
          % (args.workload, time.monotonic() - t0, proc.returncode),
          file=sys.stderr)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
