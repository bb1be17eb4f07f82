#!/usr/bin/env python3
"""Build and run the serving-stack benchmark from the root of a checkout.

    python3 perfbench/run.py --workload hot_topk --seed 1 --seconds 20 --trace 0

Builds perfbench/xkbench.exe and bin/xkq.exe (the shard server) with dune
into the build directory named by CARGO_TARGET_DIR (default
.bench_build), runs one workload, and forwards its standard output, whose
last line is the result object.  Exits non-zero, without a result, when
the repository sources are missing, the build fails, or the run fails.
"""

import os
import shutil
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def flambda(env):
    for cmd in (["ocamlfind", "ocamlopt", "-config-var", "flambda"],
                ["ocamlopt", "-config-var", "flambda"]):
        try:
            out = subprocess.run(cmd, capture_output=True, text=True, env=env,
                                 timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    return "unknown"


def main():
    args = sys.argv[1:]
    for needed in ("dune-project", "lib", os.path.join("bin", "xkq.ml"),
                   os.path.join("perfbench", "xkbench.ml")):
        if not os.path.exists(needed):
            fail("%s not found: run from the root of a full checkout" % needed)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ)
    build = subprocess.run(
        [dune, "build", "--root", ".", "--build-dir", build_dir,
         "./perfbench/xkbench.exe", "./bin/xkq.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        fail("build failed", 3)
    env["XKBENCH_FLAMBDA"] = flambda(env)
    xkq = os.path.join(build_dir, "default", "bin", "xkq.exe")
    bench = os.path.join(build_dir, "default", "perfbench", "xkbench.exe")
    # Own process group, so every process the run starts (the shard
    # servers) can be reaped even if the benchmark itself dies.
    proc = subprocess.Popen([bench, "--xkq", xkq] + args, stdout=subprocess.PIPE,
                            env=env, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass
        proc.wait()
    if out is None:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 4)
    if proc.returncode != 0:
        sys.stderr.write(out)
        fail("run failed with exit code %d" % proc.returncode, 5)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
