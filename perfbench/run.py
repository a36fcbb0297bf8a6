#!/usr/bin/env python3
"""Build the APE benchmark from source and run one workload.

Run from the root of an APE source tree:

    python3 perfbench/run.py --workload synth-tables --seed 1 --seconds 20 --trace 0

The build output goes to standard error; standard output is the
benchmark's own, ending with one JSON result line.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of an APE source tree", file=sys.stderr)
        return 2
    # The shared dune cache lives outside the tree; keep the build inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        return build.returncode
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
