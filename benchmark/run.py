#!/usr/bin/env python3
"""Build lrpcbench from the checkout's sources, then run it.

Run from the root of a checkout:

    python3 benchmark/run.py --workload lrpc_serial --seed 1 --seconds 20 --trace 0

Every argument is passed to benchmark/lrpcbench.exe (see its header
comment). The build uses dune with its shared cache disabled, so the
only files written are under _build/ in the checkout. When the build
fails -- for instance in a directory holding only the benchmark -- the
script exits non-zero without printing a result.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "benchmark", "lrpcbench.exe")


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet",
             "./benchmark/lrpcbench.exe"],
            stdout=sys.stderr, env=env, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("lrpcbench: build failed: %s" % e, file=sys.stderr)
        return 1
    if build.returncode != 0 or not os.path.exists(EXE):
        print("lrpcbench: build failed", file=sys.stderr)
        return 1
    # The GC-time probe opens the runtime's event ring; keep its file
    # inside the build directory.
    env["OCAML_RUNTIME_EVENTS_DIR"] = os.path.dirname(EXE)
    sys.stdout.flush()
    os.execve(EXE, [EXE] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
