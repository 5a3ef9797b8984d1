#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `perfbench` package (a Cargo workspace of its own) into
$CARGO_TARGET_DIR (default `.bench_build`), runs one workload, and checks
that the metric names and units it printed are exactly those declared in
BENCHMARK.json. Prints the run's report, a provenance line, and as the last
line the result JSON. Exits 0 only when every correctness gate passed.
Traced runs (`--trace 1`) write their spans to
$CARGO_TARGET_DIR/perfbench-spans/<workload>.csv; every run writes its
report to $CARGO_TARGET_DIR/perfbench-results/.
"""

import argparse
import hashlib
import json
import os
import shlex
import subprocess
import sys

# A seed no tuning run used: confirm a performance claim on it as well.
HELD_OUT_SEED = 914_237
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def output_of(cmd, cwd):
    try:
        return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def source_digest(root):
    """SHA-256 over the sources the benchmark builds from."""
    h = hashlib.sha256()
    tops = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]
    for top in tops:
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else []
        for d, dirs, names in os.walk(path):
            dirs[:] = sorted(x for x in dirs if x not in ("target", ".bench_build"))
            files += [os.path.join(d, n) for n in sorted(names)]
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def provenance(root, args, env):
    git = os.path.isdir(os.path.join(root, ".git"))
    status = output_of(["git", "status", "--porcelain"], root) if git else None
    return {
        "git_rev": output_of(["git", "rev-parse", "HEAD"], root) if git else None,
        "git_dirty": bool(status) if status is not None else None,
        "source_sha256": source_digest(root),
        "rustc": output_of(["rustc", "-V"], root),
        "nproc": os.cpu_count(),
        "PIF_WORKERS": env.get("PIF_WORKERS"),
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "command": shlex.join(["python3"] + sys.argv),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be a non-negative integer")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            declared = json.load(fh)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in declared["workloads"]}:
        fail(f"workload {args.workload!r} is not declared in BENCHMARK.json")

    env = dict(os.environ)
    target = os.path.join(root, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    # Two workers: the shard count of the serve workloads and the checker's
    # worker count, whatever the host has.
    env.setdefault("PIF_WORKERS", "2")
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            cwd=root, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.SubprocessError) as e:
        fail(f"build failed: {e}")
    if build.returncode != 0:
        fail(f"build failed with exit code {build.returncode}")

    spans = os.path.join(target, "perfbench-spans", f"{args.workload}.csv")
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--spans-out", spans,
    ]
    try:
        run = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        fail(f"run failed: {e}")
    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"run exited with code {run.returncode} without a result line")
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} are not {sorted(RESULT_KEYS)}")

    # Self-check: the printed metrics are exactly the declared ones, with
    # the declared units, so no metric can be renamed or dropped silently.
    kind = "per_layer" if args.trace == "1" else "end_to_end"
    want = {m["name"]: m["unit"] for m in declared[kind]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    problems = []
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        problems.append(f"{kind} metrics differ from BENCHMARK.json: missing {missing}, "
                        f"undeclared {extra}, unit mismatch {units}")
    for p in problems:
        lines.insert(-1, f"FAILED {p}")
        result["correct"] = False
        result["failed"] += 1

    prov = provenance(root, args, env)
    record = {"provenance": prov, "report": lines[:-1], "result": result}
    results = os.path.join(target, "perfbench-results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as fh:
        json.dump(record, fh, indent=1)

    for line in lines[:-1]:
        print(line)
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result))
    ok = run.returncode == 0 and result["correct"] is True and result["failed"] == 0
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
