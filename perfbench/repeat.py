#!/usr/bin/env python3
"""Runs workloads over several seeds and appends every result to a set.

  python3 perfbench/repeat.py --out results.jsonl --seeds 1-10
  python3 perfbench/repeat.py --out traced.jsonl --seeds 1-2 --trace 1 \\
      --workloads fed_steady,serve_topk

Each line of the output is {"workload", "seed", "trace", "result"},
with "result" the object run.py printed. compare.py reads these sets.
After untraced runs it prints compare.py's summary of the whole set:
each end-to-end metric's median and inter-quartile spread against its
bound.
"""

import argparse
import json
import os
import subprocess
import sys

import compare
import report

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None):
    bench = report.load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)

    root = os.path.dirname(HERE)
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                                  text=True)
            if proc.returncode != 0:
                print("%s seed %d: exit %d" % (workload, seed, proc.returncode),
                      file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            record = {"workload": workload, "seed": seed, "trace": args.trace,
                      "result": result}
            with open(args.out, "a") as f:
                f.write(json.dumps(record) + "\n")
            print("%s seed %d: correct=%s" % (workload, seed, result["correct"]),
                  file=sys.stderr)

    if not args.trace:
        compare.summarize(bench, compare.load(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
