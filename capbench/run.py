#!/usr/bin/env python3
"""Builds the capture-to-decision benchmark from source and runs it.

Usage, from the root of the repository:

    python3 capbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The binary is built in release mode with the repository's own
`[profile.release]` settings, mirrored into `CARGO_PROFILE_RELEASE_*`
variables because the benchmark is a workspace of its own. Build output
goes to standard error; the benchmark's report and its final JSON line
go to standard output. The exit status is the benchmark's.
"""

import os
import pathlib
import subprocess
import sys
import tomllib

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
# Longer than any run needs; a hung run is killed rather than waited on.
RUN_TIMEOUT_S = 175


def profile_env():
    """The root workspace's scalar `[profile.release]` keys as env vars."""
    manifest = ROOT / "Cargo.toml"
    if not manifest.is_file():
        sys.exit(f"capbench: no repository manifest at {manifest}")
    with manifest.open("rb") as f:
        release = tomllib.load(f).get("profile", {}).get("release", {})
    env = {}
    for key, value in release.items():
        if isinstance(value, dict):
            continue
        if isinstance(value, bool):
            value = str(value).lower()
        env["CARGO_PROFILE_RELEASE_" + key.upper().replace("-", "_")] = str(value)
    return env


def main():
    env = dict(os.environ, **profile_env())
    target = pathlib.Path(env.get("CARGO_TARGET_DIR", HERE / "target")).resolve()
    env["CARGO_TARGET_DIR"] = str(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False,
    )
    if build.returncode != 0:
        sys.exit(f"capbench: build failed with status {build.returncode}")
    exe = target / "release" / "capbench"
    args = [str(exe), *sys.argv[1:], "--out", str(target / "capbench-trace")]
    try:
        run = subprocess.run(args, env=env, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        sys.exit(f"capbench: run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
