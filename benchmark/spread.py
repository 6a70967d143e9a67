#!/usr/bin/env python3
"""Repeatability check of the benchmark, the way the driver does it.

Runs every workload of BENCHMARK.json with N different seeds, twice (set A
and set B), and reports per (workload, end-to-end metric):

  spread  = (Q3 - Q1) / median of the N values of a set
  worse   = how much set B's median is worse than set A's

Fails (exit 1) when a spread exceeds the metric's bound (setup_s exempt),
when set B is worse than set A by more than the bound, when a run's result
object does not carry exactly BENCHMARK.json's end-to-end names and units,
or when any run is incorrect or has a failed operation (so failed_ops_share
is 0 in both sets). A spread above a third of the bound is flagged
"unresolved": a change of that size cannot be told from noise. Run from the
repo root:

  python3 benchmark/spread.py [--seeds 10]
"""
import argparse
import json
import statistics
import subprocess
import sys


def run(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    seeds = ap.parse_args().seeds

    spec = json.load(open("BENCHMARK.json"))
    contract = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    ok = True
    for w in (w["name"] for w in spec["workloads"]):
        sets = []
        for s in (1, 2):
            results = []
            for i in range(seeds):
                seed = 1000 * s + i
                r = run(spec, w, seed)
                if not r["correct"] or r["failed"]:
                    print(f"FAIL {w} seed {seed}: correct={r['correct']} failed={r['failed']}")
                    ok = False
                if {k: v["unit"] for k, v in r["metrics"].items()} != contract:
                    print(f"FAIL {w} seed {seed}: metrics differ from BENCHMARK.json")
                    ok = False
                results.append(r["metrics"])
            sets.append(results)
        print(w)
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            vals = [[r[name]["value"] for r in results] for results in sets]
            meds = [statistics.median(v) for v in vals]
            spreads = [spread(v) for v in vals]
            worse = (meds[1] - meds[0]) / meds[0] * (-1 if m["better"] == "higher" else 1)
            verdict = []
            if name != "setup_s" and max(spreads) > bound:
                verdict.append("SPREAD>BOUND")
            elif name != "setup_s" and max(spreads) > bound / 3:
                verdict.append("unresolved")
            if worse > bound:
                verdict.append("B-WORSE>BOUND")
            ok &= not any(v.isupper() for v in verdict)
            print(f"  {name:<24} median {meds[0]:>14.3f} {m['unit']:<6}"
                  f" spread {spreads[0]:6.3f} {spreads[1]:6.3f}"
                  f"  B worse by {worse:+.3f}  bound {bound}  " + " ".join(verdict))
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
