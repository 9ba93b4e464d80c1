"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [--seed N]

1. ``BENCHMARK.json`` names exactly the metrics ``run.py`` prints, with
   the same units.
2. Two traced runs of each workload with the same seed, each a fresh
   process, print identical work fingerprints (window totals of
   ``sim.events``, ``storage.commits``, ``failures.injected``,
   ``cluster.restarts`` and failed ops) and identical per-layer counts:
   every per-layer metric except wall seconds and ``trace_overhead``.
   A change that moves a fingerprint value changed behaviour and must
   say so.  Both runs pin ``PYTHONHASHSEED``: ``storage.listed_paths``
   follows the order in which garbage collection walks a set of shard
   ids, so it moves by a few paths with the interpreter's hash seed.

Exits non-zero on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_manifest() -> list[str]:
    sys.path.insert(0, HERE)
    from run import END_TO_END, PER_LAYER
    from workloads import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for section, expected in (("end_to_end", END_TO_END),
                              ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[section]}
        if listed != expected:
            problems.append(f"{section}: BENCHMARK.json {listed} != "
                            f"run.py {expected}")
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        problems.append(f"workloads: {names} != {sorted(WORKLOADS)}")
    return problems


def fingerprint(workload: str, seed: int) -> dict:
    """The fingerprint plus every deterministic per-layer metric."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED="0"),
        capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.splitlines()
    prints = [json.loads(line.split(": ", 1)[1]) for line in lines
              if line.startswith("fingerprint ")]
    if not prints:
        raise RuntimeError(f"no fingerprint line from {workload}:\n"
                           f"{proc.stdout}")
    counts = {name: metric["value"] for name, metric
              in json.loads(lines[-1])["metrics"].items()
              if metric["unit"] != "s" and name != "trace_overhead"}
    return {"fingerprint": prints[0], "counts": counts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)

    problems = check_manifest()
    from workloads import WORKLOADS

    for name in WORKLOADS:
        first = fingerprint(name, args.seed)
        second = fingerprint(name, args.seed)
        status = "same" if first == second else "DIFFERENT"
        print(f"{name} seed={args.seed}: {status} "
              f"{json.dumps(first['fingerprint'])}")
        if first != second:
            problems.append(f"{name}: {first} != {second}")
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
