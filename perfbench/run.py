#!/usr/bin/env python3
"""The bpi benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a checkout of the repository. It builds the
`perfbench` package and the `bpi-server` daemon from source in release
mode (into `$CARGO_TARGET_DIR`, default `perfbench/target`), then runs one
workload and prints, as the last line of standard output, one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`. The line
before it reports the run's details: the latency tail percentile and the
sample count, `nproc`, the held-out seed, any knob cleared, and for
`--trace 1` the deterministic work counters and the layer-to-metric map.

Workloads (see BENCHMARK.json for why each was chosen):

  lib-strong  parse_process + Checker::check, strong variants, cold
              product pairs; batches of 36 checks per checking process.
  lib-weak    the same on weak variants, plus tau-ladders and tau-cycle
              products; batches of 45 checks per checking process.
  served      the bpi-server daemon at its default settings, two blocking
              clients in a closed loop, a quarter of the jobs repeating an
              earlier pair under a new id; then a restart on the same
              journal that must re-serve every verdict byte for byte.

Every verdict is compared with the answer known from how its pair was
built; a wrong one fails the run. `--trace 0` prints the end-to-end
metrics; `--trace 1` runs a plain pass and two traced passes over one
fixed set of checks (and, for `served`, a live phase observed from
outside the daemon) and prints the per-layer metrics, including the
tracing overhead. The traced passes must count the same work exactly,
and the same as any earlier traced run of that workload and seed in
this checkout.

The engine knobs BPI_ENGINE, BPI_COMPOSE, BPI_THREADS, BPI_CHAOS and
BPI_TRACE are cleared, with a note on standard error, so the program
runs as users get it. Seed 20011701 is held out: use it to confirm a
gain measured on other seeds.
"""

import os
import subprocess
import sys

KNOBS = ["BPI_ENGINE", "BPI_COMPOSE", "BPI_THREADS", "BPI_CHAOS", "BPI_TRACE"]


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    manifest = os.path.join(here, "Cargo.toml")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(here, "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cleared = [k for k in KNOBS if k in env]
    for k in cleared:
        del env[k]
        print(f"run.py: cleared {k} so the program runs as users get it", file=sys.stderr)

    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest,
             "-p", "perfbench", "-p", "bpi-server", "--bins"]
    if subprocess.run(build, env=env, stdout=sys.stderr).returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1

    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--server-bin", os.path.join(release, "bpi-server"),
           "--state-dir", os.path.join(target, "perfbench-state"),
           "--cleared", ",".join(cleared) or "none"]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
