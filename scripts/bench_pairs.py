"""Paired parent/change benchmark runs, folded into a BENCH_<label>.json record.

    python3 scripts/bench_pairs.py --parent HEAD --change "$(git write-tree)" \
        --label my_change --note "what the change does" --seeds 11-20

Run it from the root of the repository. It exports the parent and change
trees (any commit or tree name) with `git archive` into fresh directories
under --work, then for each workload and seed runs

    python3 perfbench/run.py --workload W --seed S --seconds N --trace 0

in both trees back to back (by default for every workload that
BENCHMARK.json declares), parent first on even pairs and change first on
odd ones, because the host runs in slow and fast phases. Each run's last
two output lines (machine facts and metrics) are appended to --runs, so an
interrupted set of runs resumes where it stopped; --fold-only writes the
record from --runs without running anything.

For every end-to-end metric of BENCHMARK.json the record holds the per-run
values, medians and inclusive quartiles of both sides, the pairs in which
the change is better and worse, and a verdict: "regression" when the
change's median is worse by more than the metric's bound, "gain" when it is
better in at least 90% of the pairs and by more than the parent's
interquartile range, "unresolved" when the parent's own interquartile range
is wider than the bound and the sides overlap, else "within bound".
"""
from __future__ import annotations

import argparse
import json
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MACHINE_KEYS = ("nproc", "cpu_model", "python", "numpy", "blas", "blas_threads",
                "cpu0_data_caches")


def benchmark() -> dict:
    """The repository's benchmark declaration: its workloads and end-to-end metrics."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(tree: str, dest: Path) -> None:
    """A fresh copy of a commit or tree, as the benchmark checks out each side."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", tree], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_pairs(args, dirs: dict[str, Path]) -> None:
    done = {(r["workload"], r["seed"], r["side"]) for r in read_runs(args.runs)}
    with open(args.runs, "a") as out:
        for w in args.workloads:
            for i, seed in enumerate(args.seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    if (w, seed, side) in done:
                        continue
                    start = time.time()
                    r = subprocess.run(
                        [sys.executable, "perfbench/run.py", "--workload", w, "--seed",
                         str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                        cwd=dirs[side], capture_output=True, text=True)
                    rec = {"workload": w, "seed": seed, "pair": i, "side": side,
                           "first": order[0], "rc": r.returncode,
                           "wall_s": round(time.time() - start, 1)}
                    lines = r.stdout.strip().splitlines()
                    if r.returncode == 0:
                        rec["result"] = json.loads(lines[-1])
                        rec["machine"] = json.loads(lines[-2])["machine"]
                    else:
                        rec["stderr"] = r.stderr[-2000:]
                    out.write(json.dumps(rec) + "\n")
                    out.flush()
                    print(w, seed, side, "rc", r.returncode, rec["wall_s"], "s", flush=True)


def read_runs(path: Path) -> list[dict]:
    return [json.loads(line) for line in open(path)] if path.exists() else []


def quartiles(xs: list[float]) -> dict:
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3
    return {"median": statistics.median(xs), "q1": q[0], "q3": q[2]}


def fold_metric(spec: dict, unit: str, par: list[float], chg: list[float]) -> dict:
    sign = 1 if spec["better"] == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(par, chg))
    losses = sum(sign * (c - p) < 0 for p, c in zip(par, chg))
    qp, qc = quartiles(par), quartiles(chg)
    rel = (qc["median"] - qp["median"]) / qp["median"] if qp["median"] else 0.0
    iqr = qp["q3"] - qp["q1"]
    spread = iqr / qp["median"] if qp["median"] else 0.0
    if -sign * rel > spec["bound"]:
        verdict = "regression"
    elif sign * (qc["median"] - qp["median"]) > iqr and wins >= 0.9 * len(par):
        verdict = "gain"
    elif spread > spec["bound"] and not all(sign * (c - p) > 0 for c in chg for p in par):
        verdict = "unresolved (parent spread wider than the bound)"
    else:
        verdict = "within bound"
    return {"unit": unit, "better": spec["better"], "bound": spec["bound"],
            "parent": {**qp, "runs": par}, "change": {**qc, "runs": chg},
            "relative_change_of_median": round(rel, 4),
            "change_better_in_pairs": wins, "change_worse_in_pairs": losses,
            "verdict": verdict}


def fold(args, shas: dict) -> dict:
    specs = benchmark()["end_to_end"]
    recs = read_runs(args.runs)
    workloads = {}
    for w in args.workloads:
        rs = [r for r in recs if r["workload"] == w]
        by = {(r["pair"], r["side"]): r for r in rs}
        full = sorted(p for p, side in by if side == "parent" and (p, "change") in by
                      and by[(p, "parent")]["rc"] == 0 and by[(p, "change")]["rc"] == 0)
        if not full:
            continue

        def values(side: str, name: str) -> list[float]:
            return [by[(p, side)]["result"]["metrics"][name]["value"] for p in full]

        unit = by[(full[0], "parent")]["result"]["metrics"]
        workloads[w] = {
            "pairs": len(full),
            "seeds": [by[(p, "parent")]["seed"] for p in full],
            "first_side": [by[(p, "parent")]["first"] for p in full],
            "failed_runs": [r for r in rs if r["rc"] != 0],
            "metrics": {s["name"]: fold_metric(s, unit[s["name"]]["unit"],
                                               values("parent", s["name"]),
                                               values("change", s["name"]))
                        for s in specs}}
    machine = next(r["machine"] for r in recs if r["rc"] == 0)
    return {
        "label": args.label,
        "change": args.note,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds} "
                   "--trace 0",
        "record_command": shlex.join(
            ["python3", "scripts/bench_pairs.py", "--parent", args.parent, "--change",
             args.change, "--label", args.label, "--note", args.note, "--seeds",
             f"{args.seeds[0]}-{args.seeds[-1]}", "--seconds", str(args.seconds),
             "--workloads", ",".join(args.workloads)]
            + (["--claim", args.claim] if args.claim else [])),
        **shas,
        "sha_note": "the change is the commit that adds this file; its src/ tree hash "
                    "(git rev-parse <commit>:src) is change_src_tree, and its perfbench/ "
                    "tree hash is change_perfbench_tree",
        "method": "each pair runs parent and change back to back on the same seed, from "
                  "fresh copies of each tree; the side that runs first alternates (parent "
                  "first on even pairs); medians and inclusive quartiles over the pairs",
        **({"claim": dict(zip(("workload", "metric"), args.claim.split(":")),
                          rule="change better in >= 90% of pairs and median difference "
                               "larger than the parent's interquartile range")}
           if args.claim else {}),
        "machine": {k: machine[k] for k in MACHINE_KEYS if k in machine},
        "workloads": workloads,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="commit of the parent side")
    ap.add_argument("--change", required=True, help="commit or tree of the change side")
    ap.add_argument("--label", required=True, help="the record is BENCH_<label>.json")
    ap.add_argument("--note", required=True, help="one line on what the change does")
    ap.add_argument("--seeds", type=seed_list, default=seed_list("11-20"),
                    help="first-last, one pair per seed (default 11-20)")
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--workloads", type=lambda s: s.split(","),
                    default=[w["name"] for w in benchmark()["workloads"]],
                    help="comma-separated (default: every workload of BENCHMARK.json)")
    ap.add_argument("--work", type=Path, default=None,
                    help="directory for the two exported trees (default: a temporary one)")
    ap.add_argument("--runs", type=Path, default=None,
                    help="JSON-lines file of the runs (default: runs.jsonl in --work)")
    ap.add_argument("--claim", default=None,
                    help="workload:metric whose gain the change claims, if any")
    ap.add_argument("--fold-only", action="store_true")
    args = ap.parse_args()
    work = args.work or Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    args.runs = args.runs or work / "runs.jsonl"
    shas = {"parent_commit": git("rev-parse", args.parent + "^{commit}"),
            "parent_src_tree": git("rev-parse", args.parent + ":src"),
            "change_src_tree": git("rev-parse", args.change + ":src"),
            "change_perfbench_tree": git("rev-parse", args.change + ":perfbench"),
            "parent_perfbench_tree": git("rev-parse", args.parent + ":perfbench")}
    if not args.fold_only:
        dirs = {"parent": work / "parent", "change": work / "change"}
        for side, tree in (("parent", args.parent), ("change", args.change)):
            if not dirs[side].exists():
                export(tree, dirs[side])
        run_pairs(args, dirs)
    record = fold(args, shas)
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for w, d in record["workloads"].items():
        print(w, d["pairs"], "pairs")
        for name, x in d["metrics"].items():
            p, c = x["parent"], x["change"]
            print(f"  {name:17s} {p['median']:9.4g} [{p['q1']:.4g}-{p['q3']:.4g}] -> "
                  f"{c['median']:9.4g} {x['relative_change_of_median']:+.1%} better "
                  f"{x['change_better_in_pairs']}/{d['pairs']} {x['verdict']}")


if __name__ == "__main__":
    main()
