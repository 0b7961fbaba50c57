#!/usr/bin/env python3
"""Builds the planner from source and runs one benchmark workload.

    python3 perfbench/run.py --workload compile|sweep|serve --seed N \\
        --seconds S --trace 0|1 [--results FILE]
    python3 perfbench/run.py compare A.jsonl [B.jsonl]
    python3 perfbench/run.py interleave OTHER A.jsonl B.jsonl \\
        --workload W [--workload W ...] --seeds 1-10 --seconds S

Run from the repository root.  The build goes to $CARGO_TARGET_DIR
(default .bench_build) under perfbench/; the last line of standard output
is the result object.  `compare` summarises one or two sets of results
(each run appends its record to FILE, default <build>/perfbench/results.jsonl)
and gives a verdict per workload and metric.  `interleave` takes two such
sets in alternation, A from the checkout at OTHER (e.g. the parent) and B
from this one, each seed back to back with the first side alternating,
then compares them.  See perfbench/README.md.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.join(ROOT, base), "perfbench")


def build():
    """Configures (once) and builds the benchmark targets; returns the dir."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the repository sources are not next to perfbench/; "
             "run from a full checkout")
    out = build_dir()
    log = sys.stderr
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release", "-DRAINBOW_CHECKED=OFF"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=log, stderr=log).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    targets = ["perfbench", "rainbowd", "bench_compare"]
    if subprocess.run(["cmake", "--build", out, "-j", jobs, "--target"] + targets,
                      stdout=log, stderr=log).returncode != 0:
        fail("build failed")
    return out


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the sources the benchmark builds, so runs of one tree
    can be told apart from another's even without git."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt"),
             os.path.join(ROOT, "tools", "rainbowd.cpp")]
    for top in (os.path.join(ROOT, "src"), HERE):
        for base, dirs, files in os.walk(top):
            dirs.sort()
            paths += [os.path.join(base, f) for f in sorted(files)]
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def run_workload(args):
    out = build()
    workdir = os.path.relpath(os.path.join(out, "work"), ROOT)
    os.makedirs(os.path.join(ROOT, workdir), exist_ok=True)
    results = args.results or os.path.join(out, "results.jsonl")
    cmd = [os.path.join(out, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--daemon", os.path.join(out, "rainbowd"), "--workdir", workdir,
           "--results", results, "--git-sha", git_sha(),
           "--source-digest", source_digest()]
    # Own process group, so a timeout also stops the daemon it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        fail("benchmark exited with code %d" % proc.returncode, proc.returncode)


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def interleave(argv):
    """Alternates runs of the checkout at OTHER (side A) and this one (B)."""
    parser = argparse.ArgumentParser(prog="run.py interleave")
    parser.add_argument("other")
    parser.add_argument("a_results")
    parser.add_argument("b_results")
    parser.add_argument("--workload", action="append", required=True,
                        choices=["compile", "sweep", "serve"])
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args(argv)
    sides = [(os.path.abspath(args.other), os.path.abspath(args.a_results)),
             (ROOT, os.path.abspath(args.b_results))]
    env = dict(os.environ)
    if os.path.isabs(env.get("CARGO_TARGET_DIR", "")):
        del env["CARGO_TARGET_DIR"]  # one build per checkout, not a shared one
    for k, seed in enumerate(args.seeds):
        for workload in args.workload:
            for root, results in sides if k % 2 == 0 else sides[::-1]:
                cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", "0",
                       "--results", results]
                print("perfbench: %s seed %d in %s" % (workload, seed, root),
                      file=sys.stderr, flush=True)
                done = subprocess.run(cmd, cwd=root, env=env,
                                      stdout=subprocess.DEVNULL)
                if done.returncode != 0:
                    fail("run failed in %s" % root, done.returncode)
    compare([args.a_results, args.b_results])


def compare(files):
    out = build()
    spec = os.path.join(ROOT, "BENCHMARK.json")
    sys.exit(subprocess.run([os.path.join(out, "bench_compare"), spec]
                            + files).returncode)


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "interleave":
        interleave(sys.argv[2:])
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) not in (3, 4):
            fail("usage: run.py compare A.jsonl [B.jsonl]", 2)
        compare(sys.argv[2:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["compile", "sweep", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--results", help="append the run record here")
    run_workload(parser.parse_args())


if __name__ == "__main__":
    main()
