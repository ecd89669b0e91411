#!/usr/bin/env python3
"""Build and run the whole-run benchmark, or compare two built copies of it.

Measure one workload (builds the benchmark first, from the root of a
checkout):

    python3 perfbench/run.py --workload burst_flat_64 --seed 1998 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; `--trace 1` swaps the
end-to-end metrics for the per-layer ones. The build goes to
`$CARGO_TARGET_DIR` (default `perfbench/target`).

Compare a parent build against a change build (A/B mode):

    python3 perfbench/run.py ab PARENT_BIN CHANGE_BIN [--pairs 10]

A/B mode runs every workload in BENCHMARK.json for its `run_seconds`, at
seed 1998, in interleaved pairs, alternating which side goes first. It
prints per workload and end-to-end metric each side's median and
quartiles, the change's win fraction and a verdict:

- errors: the change failed more output checks on the workload than the
  parent; this overrides every other verdict on that workload, and A/B
  mode exits with status 1;
- gain: the change wins at least 9 of 10 pairs and the medians differ by
  more than the parent's interquartile range;
- regression: the change's median is worse than the parent's by more than
  the metric's bound in BENCHMARK.json;
- unresolved: either side's interquartile range, as a share of its
  median, exceeds the bound;
- same: none of the above.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run ends within 180 s; leave room for start-up and the build check.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
# A/B mode always measures at the seed the benchmark defaults to.
AB_SEED = 1998


def target_dir():
    env = os.environ.get("CARGO_TARGET_DIR")
    if env:
        path = Path(env)
        return path if path.is_absolute() else ROOT / path
    return HERE / "target"


def build():
    """Builds the benchmark in release mode; returns the binary's path."""
    if not (ROOT / "Cargo.toml").is_file():
        sys.exit(f"error: {ROOT} holds no Cargo.toml; run from a full checkout")
    cmd = [
        "cargo", "build", "--release", "--offline",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    # Cargo's progress goes to stderr; stdout is kept for the result line.
    result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if result.returncode != 0:
        sys.exit(f"error: benchmark build failed ({result.returncode})")
    binary = target_dir() / "release" / "perfbench"
    if not binary.is_file():
        sys.exit(f"error: build produced no {binary}")
    return binary


def run_binary(binary, args, scratch):
    """Runs one measurement; returns (exit code, stdout)."""
    cmd = [str(binary), *args, "--scratch", str(scratch)]
    try:
        result = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return 1, ""
    return result.returncode, result.stdout


def measure(argv):
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1998)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args(argv)
    binary = build()
    code, out = run_binary(
        binary,
        [
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", args.trace,
        ],
        target_dir() / "perfbench-scratch",
    )
    sys.stdout.write(out)
    return code


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """The A/B verdict for one metric on one workload; see the module doc."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    win_frac = wins / len(parent)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    spread = max((p3 - p1) / pm if pm else 0.0, (c3 - c1) / cm if cm else 0.0)
    if win_frac >= 0.9 and sign * (cm - pm) > (p3 - p1):
        label = "gain"
    elif pm and sign * (pm - cm) / pm > bound:
        label = "regression"
    elif spread > bound:
        label = "unresolved"
    else:
        label = "same"
    return label, win_frac, (p1, pm, p3), (c1, cm, c3)


def ab(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="Compare two built benchmark binaries.")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 10:
        sys.exit("error: A/B mode needs at least 10 pairs")
    workloads = [w["name"] for w in spec["workloads"]]
    scratch = target_dir() / "perfbench-ab-scratch"
    values = {}  # (workload, side) -> {metric: [values]}
    checks = {}  # (workload, side) -> [failed, attempted]
    for i in range(args.pairs):
        sides = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for workload in workloads:
            for side in sides:
                binary = args.parent if side == "parent" else args.change
                code, out = run_binary(
                    binary,
                    [
                        "--workload", workload,
                        "--seed", str(AB_SEED),
                        "--seconds", str(spec["run_seconds"]),
                        "--trace", "0",
                    ],
                    scratch,
                )
                lines = out.strip().splitlines()
                if code != 0 or not lines:
                    sys.exit(f"error: {side} failed on {workload} (exit {code})")
                if i == 0:
                    manifest = next((l for l in lines if l.startswith("# manifest ")), "")
                    print(f"# {side} {binary}: {manifest[len('# manifest '):]}")
                result = json.loads(lines[-1])
                tally = checks.setdefault((workload, side), [0, 0])
                tally[0] += result["failed"]
                tally[1] += result["attempted"]
                for name, metric in result["metrics"].items():
                    values.setdefault((workload, side), {}).setdefault(name, []).append(
                        metric["value"]
                    )
        print(f"# pair {i + 1}/{args.pairs} done", file=sys.stderr)

    errors = False
    for workload in workloads:
        for side in ("parent", "change"):
            failed, attempted = checks[(workload, side)]
            print(f"# {workload} {side}: {failed} of {attempted} checked runs failed")
    print(f"{'workload':<20} {'metric':<13} {'parent q1/med/q3':>32} "
          f"{'change q1/med/q3':>32} {'wins':>5}  verdict")
    for workload in workloads:
        # A change that fails more checks than the parent gains nothing.
        worse = checks[(workload, "change")][0] > checks[(workload, "parent")][0]
        errors |= worse
        for m in spec["end_to_end"]:
            parent = values[(workload, "parent")][m["name"]]
            change = values[(workload, "change")][m["name"]]
            label, win_frac, pq, cq = verdict(parent, change, m["better"], m["bound"])
            if worse:
                label = "errors"
            fmt = lambda q: "/".join(f"{v:.5g}" for v in q)
            print(f"{workload:<20} {m['name']:<13} {fmt(pq):>32} {fmt(cq):>32} "
                  f"{win_frac:>5.2f}  {label}")
    return 1 if errors else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "ab":
        return ab(sys.argv[2:])
    return measure(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
