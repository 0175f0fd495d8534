#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 hostbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds hostbench/main.exe with
dune (the first build compiles the whole engine) and passes every
argument through; the last line of standard output is the JSON result.
Build output goes to standard error. It fails with a nonzero exit code,
printing no result, when the checkout lacks the sources it builds.
"""

import ctypes
import os
import signal
import subprocess
import sys

EXE = os.path.join("_build", "default", "hostbench", "main.exe")
NEEDED = ["dune-project", "lib", os.path.join("hostbench", "dune")]
RUN_TIMEOUT_S = 170
ADDR_NO_RANDOMIZE = 0x0040000


def fix_address_space():
    """Turn off address-space randomisation for this process and its
    children. Heap and stack placement moved the per-process median
    run time of a workload by up to 7% between otherwise identical
    runs; with a fixed layout the runs agree within ~3%. Where the
    kernel refuses, the benchmark runs randomised."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


_children = []


def _stop(signum, _frame):
    for child in _children:
        child.kill()
        child.wait()
    sys.exit(128 + signum)


def run_child(cmd, timeout=None, **kwargs):
    """Run [cmd] to completion; a signal to this script stops it too."""
    child = subprocess.Popen(cmd, **kwargs)
    _children.append(child)
    try:
        return child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        return None
    finally:
        _children.remove(child)


def main():
    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    missing = [p for p in NEEDED if not os.path.exists(p)]
    if missing:
        print("run.py: not at the root of an fpvm checkout (missing %s)"
              % ", ".join(missing), file=sys.stderr)
        return 2
    # keep dune's shared cache out of the home directory
    env = dict(os.environ, DUNE_CACHE="disabled")
    built = run_child(["dune", "build", "--root", ".", "./hostbench/main.exe"],
                      stdout=sys.stderr, env=env)
    if built != 0:
        print("run.py: build failed", file=sys.stderr)
        return 3
    fix_address_space()
    code = run_child([EXE] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    if code is None:
        print("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 4
    return code


if __name__ == "__main__":
    sys.exit(main())
