#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The executable is built with dune (default profile, results under
_build/) and run with the same arguments; its standard output is passed
through unchanged, so the last line is the one-line JSON result.  Build
output goes to standard error.  The exit code is the executable's, or 1
when the build fails or the run exceeds its time limit.
"""

import glob
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 175
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def find_dune():
    found = shutil.which("dune")
    if found:
        return found
    candidates = []
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    if prefix:
        candidates.append(os.path.join(prefix, "bin", "dune"))
    candidates += sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    for c in candidates:
        if os.access(c, os.X_OK):
            return c
    return None


def main():
    if not os.path.isfile("dune-project"):
        print("run.py: run from the root of a checkout (no dune-project here)", file=sys.stderr)
        return 1
    dune = find_dune()
    if dune is None:
        print("run.py: dune not found", file=sys.stderr)
        return 1
    env = dict(os.environ)
    # keep every build artifact inside the checkout
    env["DUNE_CACHE"] = "disabled"
    env["PATH"] = os.path.dirname(dune) + os.pathsep + env.get("PATH", "")
    build = subprocess.run(
        [dune, "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    proc = subprocess.Popen([EXE] + sys.argv[1:], env=env)
    try:
        return proc.wait(timeout=None if "--selftest" in sys.argv else RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("run.py: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        return 1


if __name__ == "__main__":
    sys.exit(main())
