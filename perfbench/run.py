#!/usr/bin/env python3
"""Builds the benchmark and the `tdc` binary from source, then runs it.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Every argument is passed on to the benchmark binary (see
perfbench/README.md). Exits non-zero without printing a result when the
build fails, e.g. outside a full checkout of the repository.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build():
    """Builds both binaries; returns {binary name: executable path}."""
    proc = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
            "-p", "tdc-perfbench", "-p", "tdc-cli", "--bins",
            "--message-format=json-render-diagnostics",
        ],
        stdout=subprocess.PIPE,
        check=False,
    )
    if proc.returncode != 0:
        return None
    executables = {}
    for line in proc.stdout.decode().splitlines():
        try:
            message = json.loads(line)
        except ValueError:
            continue
        if message.get("reason") == "compiler-artifact" and message.get("executable"):
            executables[message["target"]["name"]] = message["executable"]
    return executables


def main():
    executables = build()
    if not executables or not {"tdc-perfbench", "tdc"} <= executables.keys():
        print("error: cannot build the benchmark", file=sys.stderr)
        return 1
    return subprocess.call(
        [
            executables["tdc-perfbench"],
            "--tdc", executables["tdc"],
            "--work-dir", os.path.join(HERE, "out"),
        ]
        + sys.argv[1:]
    )


if __name__ == "__main__":
    sys.exit(main())
