#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The OCaml program in this directory
does the measuring and prints one JSON line; this wrapper builds it
with dune inside the checkout, runs it, and adds the process's peak
resident set size (`peak_rss_mb`, from the kernel's rusage of the
child) to the end-to-end metrics.  It exits non-zero without a result
when the checkout does not hold the library sources.
"""

import json
import os
import signal
import subprocess
import sys
import threading

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def main(argv):
    trace = dict(zip(argv[::2], argv[1::2])).get("--trace") == "1"
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a checkout that holds dune-project and lib/")
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        fail("build failed")
    child = subprocess.Popen([EXE] + argv, stdout=subprocess.PIPE, text=True)
    signal.signal(signal.SIGTERM, lambda *_: child.kill())
    watchdog = threading.Timer(TIMEOUT_S, child.kill)
    watchdog.start()
    try:
        out = child.stdout.read()
        _, status, usage = os.wait4(child.pid, 0)
    finally:
        watchdog.cancel()
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        fail(f"benchmark exited with {child.returncode}")
    lines = out.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if not trace:
        # ru_maxrss is in KiB on Linux: the child's VmHWM
        result["metrics"]["peak_rss_mb"] = {"value": usage.ru_maxrss / 1024.0, "unit": "MB"}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
