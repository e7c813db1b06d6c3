#!/usr/bin/env python3
"""Measure the run-to-run spread of the end-to-end metrics.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                                [--record perfbench/NOISE.json]

Runs each workload once per seed (`--trace 0`, `run_seconds` from
BENCHMARK.json) from the root of a checkout, and prints for every
end-to-end metric its median and its spread: the distance between the
first and third quartile (`statistics.quantiles(values, n=4)`) as a
share of the median, next to the metric's bound, and beside it the
spread of the same timing unscaled (the line `run.py` prints before the
result).  A spread should stay below a third of its bound.  `--record` stores the spreads, the raw
values and the machine facts (nproc, OCaml version, git revision).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def run(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True).stdout.strip()
    except OSError:
        return ""


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--record")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    worst = 0.0
    for w in args.workloads.split(","):
        values = {m: [] for m in bounds}
        unscaled = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0",
            ]
            out = subprocess.run(cmd, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{w} seed {seed} failed:\n{out.stderr}")
            lines = out.stdout.strip().split("\n")
            result = json.loads(lines[-1])
            if not result["correct"]:
                sys.exit(f"{w} seed {seed}: incorrect result {result}")
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
            # the line before the result: the same timings unscaled
            words = lines[-2].split()[1:]
            for k, v in zip(words[::2], words[1::2]):
                unscaled.setdefault(k, []).append(float(v))
            print(f"{w} seed {seed}: " + " ".join(
                f"{m}={values[m][-1]:.6g}" for m in bounds), flush=True)
        report[w] = {}
        for m, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            report[w][m] = {"median": med, "spread": spread, "bound": bounds[m],
                            "values": vs}
            flag = "ok" if spread < bounds[m] / 3 else "WIDE"
            if m != "setup_s":
                worst = max(worst, spread / bounds[m])
            line = (f"  {w:14s} {m:18s} median {med:.6g}  spread {spread:.4f}  "
                    f"bound {bounds[m]}  {flag}")
            if m in unscaled:
                uq1, umed, uq3 = statistics.quantiles(unscaled[m], n=4)
                report[w][m]["unscaled"] = {"median": umed, "spread": (uq3 - uq1) / umed,
                                            "values": unscaled[m]}
                line += f"  (unscaled: median {umed:.6g} spread {(uq3 - uq1) / umed:.4f})"
            print(line)
        speeds = unscaled.get("machine_speed", [])
        if speeds:
            print(f"  {w:14s} machine_speed {min(speeds):.3f}..{max(speeds):.3f}")
    print(f"largest spread/bound (setup_s excluded): {worst:.3f}")
    if args.record:
        facts = {
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "ocaml": run(["ocamlfind", "ocamlopt", "-version"]) or run(["ocaml", "-vnum"]),
            "git_rev": run(["git", "rev-parse", "--short", "HEAD"]),
            "seeds": [args.first_seed, args.first_seed + args.seeds - 1],
            "run_seconds": args.seconds,
        }
        old = {}
        if os.path.exists(args.record):
            with open(args.record) as f:
                old = json.load(f).get("workloads", {})
        old.update(report)
        with open(args.record, "w") as f:
            json.dump({"machine": facts, "workloads": old}, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
