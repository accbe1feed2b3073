"""Run the benchmark in two checkouts in alternating pairs and summarise it.

    python tools/bench_pairs.py PARENT CHANGE --workload tensor \\
        --seeds 1301-1310 --seconds 25 --out BENCH_13.json [--traced]

For each seed, ``python3 bench/run.py --workload W --seed S --seconds T
--trace 0`` runs once in each checkout, the parent first on even pairs and
the change first on odd ones.  Per workload and end-to-end metric the output
holds both sides' runs, medians and quartiles
(``statistics.quantiles(method='inclusive')``), the ratio of the medians and
the number of pairs the change won, as in ``BENCH_9.json``, and a verdict
judged against the metric's bound (see `verdict`).  Units, directions and
bounds come from the change's ``BENCHMARK.json``.  With ``--traced`` one
``--trace 1`` run per side on the first seed adds the per-layer totals.

An existing output file is updated in place: workloads and keys that this
call does not produce are kept.  Only the standard library is used, and
nothing in either checkout is written but what ``bench/run.py`` itself
writes there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """Seeds from a list such as ``7,8,1301-1305``."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The metrics line that one bench/run.py call prints last."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{checkout.name}: {workload} seed {seed} printed no metrics "
                         f"(exit {proc.returncode})")
    return json.loads(lines[-1])


def quartiles(xs: list[float]) -> list[float]:
    """[Q1, Q3] of xs, by ``statistics.quantiles(method='inclusive')``."""
    if len(xs) < 2:
        return [xs[0], xs[0]]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return [q[0], q[2]]


def verdict(metric: dict, parent: list[float], change: list[float]) -> str:
    """How the change compares with the parent on one metric, against its
    ``bound``, a share of the parent's median:

    - ``better`` when every run of the change beats every run of the parent;
    - else ``unresolved`` when the parent's spread, (Q3 - Q1) / median,
      exceeds the bound, so a move within it cannot be told from noise;
    - else ``worse`` when the median moved the wrong way by more than the
      bound;
    - else ``within bound``.
    """
    lower = metric["better"] == "lower"
    if (max(change) < min(parent)) if lower else (min(change) > max(parent)):
        return "better"
    med = statistics.median(parent)
    q1, q3 = quartiles(parent)
    if med and (q3 - q1) / abs(med) > metric["bound"]:
        return "unresolved"
    loss = statistics.median(change) - med
    if (loss if lower else -loss) > metric["bound"] * abs(med):
        return "worse"
    return "within bound"


def summarise(metrics: list[dict], runs: dict[str, list[dict]]) -> dict:
    """Per metric: both sides' runs, medians, quartiles, ratio, wins and
    verdict."""
    out = {}
    pairs = len(runs["parent"])
    for m in metrics:
        name = m["name"]
        vals = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in SIDES}
        better = (lambda c, p: c < p) if m["better"] == "lower" else (lambda c, p: c > p)
        wins = sum(better(c, p) for p, c in zip(vals["parent"], vals["change"]))
        med = {s: statistics.median(vals[s]) for s in SIDES}
        out[name] = {
            "unit": m["unit"],
            "parent_median": round(med["parent"], 4),
            "change_median": round(med["change"], 4),
            "ratio": round(med["change"] / med["parent"], 3) if med["parent"] else None,
            "parent_quartiles": [round(q, 4) for q in quartiles(vals["parent"])],
            "change_quartiles": [round(q, 4) for q in quartiles(vals["change"])],
            "change_wins": f"{wins}/{pairs}",
            "verdict": verdict(m, vals["parent"], vals["change"]),
            "parent_runs": [round(v, 4) for v in vals["parent"]],
            "change_runs": [round(v, 4) for v in vals["change"]],
        }
    return out


def per_job(metrics: dict[str, dict], jobs: int) -> dict[str, float]:
    """Counts and times of a traced run per attempted job; maxima and
    ratios are not sums over jobs, so they are left out."""
    return {k: round(m["value"] / (jobs or 1), 6) for k, m in metrics.items()
            if m["unit"] in ("count", "s") and "max" not in k}


def traced(checkouts: dict[str, Path], workload: str, seed: int, seconds: float) -> dict:
    """One traced run per side: per-layer totals and totals per attempted job."""
    out = {"command": f"python3 bench/run.py --workload {workload} --seed {seed} "
                      f"--trace 1 --seconds {seconds:g}"}
    for side in SIDES:
        res = run(checkouts[side], workload, seed, seconds, 1)
        out[side] = {
            "correct": res["correct"],
            "attempted_jobs": res["attempted"],
            "failed_jobs": res["failed"],
            "totals": {k: round(m["value"], 4) for k, m in res["metrics"].items()},
            "per_job": per_job(res["metrics"], res["attempted"]),
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", action="append", required=True,
                    help="workload to run; repeat for several")
    ap.add_argument("--seeds", required=True, help="seeds, such as 7,8,1301-1305")
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--out", type=Path, required=True, help="JSON file to write or update")
    ap.add_argument("--traced", action="store_true",
                    help="add one traced run per side on the first seed")
    args = ap.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    seeds = parse_seeds(args.seeds)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["method"] = {
        "command": "python3 bench/run.py --workload <w> --seed <seed> --trace 0 "
                   f"--seconds {args.seconds:g}",
        "pairs": "parent and change alternate, the parent first on even pairs and the "
                 "change first on odd ones",
        "machine": f"{os.cpu_count()} vCPUs, {platform.system()}, "
                   f"Python {platform.python_version()}",
        "quartiles": "statistics.quantiles(method='inclusive'), [Q1, Q3]",
    }
    for workload in args.workload:
        runs = {s: [] for s in SIDES}
        for k, seed in enumerate(seeds):
            for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
                runs[side].append(run(checkouts[side], workload, seed, args.seconds, 0))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{s} {runs[s][-1]['metrics']['jobs_per_s']['value']:.2f}/s" for s in SIDES),
                file=sys.stderr)
        doc.setdefault("end_to_end", {})[workload] = {
            "pairs": len(seeds),
            "seeds": seeds,
            "all_correct_no_failed_jobs": all(r["correct"] and not r["failed"]
                                              for s in SIDES for r in runs[s]),
            "attempted_jobs": {s: [r["attempted"] for r in runs[s]] for s in SIDES},
            "metrics": summarise(metrics, runs),
        }
        if args.traced:
            doc[f"per_layer_{workload}_traced"] = traced(checkouts, workload, seeds[0],
                                                        args.seconds)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
