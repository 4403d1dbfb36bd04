#!/usr/bin/env python3
"""Builds the simulator benchmark and runs it.

Usage, from the root of the repository:

    python3 simbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (simbench/Cargo.toml) that
depends on the repository's crates by path, so it builds from source in
any checkout. Build output goes to stderr and to $CARGO_TARGET_DIR
(default: .bench_build). Before handing over to the benchmark binary this
script prints the host block: the toolchain, the git revision, and the
proof that mcs-sim's `debug-checks` feature is off in the build.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")


def fail(msg):
    print(f"simbench: {msg}", file=sys.stderr)
    sys.exit(1)


def cargo(*args, capture=False):
    cmd = ["cargo", *args, "--offline", "--manifest-path", MANIFEST]
    if capture:
        return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)


def line_of(cmd):
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return None
    text = out.stdout.strip()
    return text if out.returncode == 0 and text else None


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.environ["CARGO_TARGET_DIR"] = target

    if cargo("build", "--release").returncode != 0:
        fail("build failed (the benchmark needs the repository's crates/ beside it)")

    # mcs-sim's oracles must be compiled out. The manifest asks for that
    # (default-features = false, and this package is its own workspace, so
    # the `mcs` facade that re-enables them is not in the build); this
    # check proves that no dependency turned the feature back on.
    tree = cargo("tree", "-e", "features", "-i", "mcs-sim", capture=True)
    if tree.returncode != 0:
        fail("cargo tree failed: " + tree.stderr.strip())
    if "debug-checks" in tree.stdout:
        fail("mcs-sim was built with debug-checks on; refusing to measure it")

    rustc = line_of(["rustc", "-V"]) or "unknown"
    root = os.path.dirname(HERE)
    rev = None
    if os.path.exists(os.path.join(root, ".git")):
        rev = line_of(["git", "-C", root, "rev-parse", "HEAD"])
    rev = rev or "unknown (not a git checkout)"
    print(f"# host: rustc=\"{rustc}\" git_rev={rev} mcs-sim debug-checks=off (cargo tree -e features)")
    sys.stdout.flush()

    binary = os.path.join(target, "release", "simbench")
    os.execv(binary, [binary, *sys.argv[1:]])


if __name__ == "__main__":
    main()
