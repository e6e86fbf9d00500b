#!/usr/bin/env python3
"""Build and run the parcache benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <appendix-a|engine-stress> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` binary from this directory's Cargo package (a
workspace of its own that depends on the repository's crates by path),
runs it, and passes its standard output through. The last line printed is
the result object; the line before it is the run's context (machine,
toolchain, source revision, seed and workload). Build output goes to
standard error. The target directory is `$CARGO_TARGET_DIR`, or
`.bench_build` under the repository root.

Exits non-zero, printing no result, when the repository's sources are
missing, the build fails, or the run fails or overruns.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
WORKLOADS = ("appendix-a", "engine-stress")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_revision():
    """The git commit, or a digest of the sources when there is no git."""
    # The ceiling stops git from reporting an enclosing repository's commit.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    files += sorted(p for p in (ROOT / "crates").rglob("*") if p.is_file())
    files += sorted(p for p in BENCH_DIR.rglob("*") if p.is_file() and "target" not in p.parts)
    for p in files:
        if p.exists():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "tree-sha256:" + h.hexdigest()


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "crates" / "bench" / "Cargo.toml").is_file():
        fail(f"no parcache sources under {ROOT}: crates/bench/Cargo.toml is missing")

    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(BENCH_DIR / "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if built.returncode != 0:
        fail(f"build failed with exit code {built.returncode}")

    env["PERFBENCH_RUSTC"] = rustc_version()
    env["PERFBENCH_COMMIT"] = source_revision()
    cmd = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    if run.returncode != 0:
        fail(f"run failed with exit code {run.returncode}")
    lines = run.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith('{"correct"'):
        fail("run printed no result")
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
