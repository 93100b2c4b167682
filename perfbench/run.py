"""Run one benchmark workload in a fresh, default-configured process.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_flow --seed 1 --seconds 20 --trace 0

This launcher imports nothing from the library.  It starts
``perfbench/measure.py`` as a child process with every ``REPRO_*``
environment variable removed, so each workload runs the library defaults
and no setting of one workload (the durable tier of ``warm_rerun``, say) or
of the caller's shell leaks into another.  The child's standard output is
passed through; its last line is the result object.  A child that runs
past the time limit is killed, and the launcher then exits non-zero
without a result.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("paper_flow", "warm_rerun", "serve_closed")

#: Hard wall-clock limit of one workload process, seconds.
TIME_LIMIT_S = 170.0

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def scrubbed_environment() -> dict:
    """The caller's environment without ``REPRO_*``, with ``src`` importable."""
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("REPRO_")}
    source = str(ROOT / "src")
    env["PYTHONPATH"] = (source + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else source)
    # Fixed string hashing keeps set and dict orders, and so the per-layer
    # counts, identical from run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    command = [sys.executable, str(ROOT / "perfbench" / "measure.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--spawned-at", repr(time.monotonic())]
    child = subprocess.Popen(command, cwd=str(ROOT), env=scrubbed_environment())
    try:
        code = child.wait(timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print(f"perfbench: {args.workload} exceeded {TIME_LIMIT_S:.0f} s",
              file=sys.stderr)
        return 3
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    return code


if __name__ == "__main__":
    sys.exit(main())
