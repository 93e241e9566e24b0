"""Benchmark of the qgns command line: three workloads, end-to-end metrics and
a traced per-module split.

    python3 perfbench/run.py --workload toy_train --seed 1 --seconds 35 --trace 0

Run it from the root of a checkout; it imports qgns from `src/` there. It
writes the seeded inputs and their numpy references into
`.perfbench-run/<workload>-s<seed>-p<pid>/`, runs set-up probes, then one
workload process, and prints a summary, the machine facts and, as the last
line, one JSON object with `correct`, `attempted`, `failed` and `metrics`.
`--trace 0` reports the end-to-end metrics; `--trace 1` the per-layer ones,
and keeps the spans in `.perfbench-run/spans-<workload>-s<seed>.jsonl`.
See perfbench/README.md for what each metric means.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from tracing import METRICS as LAYER_METRICS  # noqa: E402

SETUP_PROBES = 4   # fresh processes besides the workload process; setup_s is their median
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (("ops_per_s", "ops/s"), ("op_ms_p50", "ms"), ("op_ms_p90", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MiB"), ("ok_op_ratio", "ratio"),
              ("solve_s", "s"), ("epochs_to_target", "count"))


class BenchError(RuntimeError):
    pass


def worker_env() -> dict[str, str]:
    """The environment of the workload processes: BLAS threads at most nproc,
    and no bytecode written into the checkout, so every import compiles alike."""
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = env.get(var, "")
        env[var] = str(min(int(current), nproc) if current.isdigit() and int(current) > 0
                       else nproc)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def machine_facts(env: dict[str, str], workload: str) -> dict:
    import numpy as np

    facts = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": "unknown",
             "python": platform.python_version(), "numpy": np.__version__,
             "blas": "unknown",
             "blas_threads": {var: env[var] for var in BLAS_THREAD_VARS}}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    facts["cpu0_data_caches"] = caches
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        pass
    facts["statevector_bytes_computed"] = workloads.statevector_bytes()[workload]
    return facts


def run_worker(plan_path: Path, result_path: Path, workdir: Path, env, timeout: float,
               *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path), *extra]
    proc = subprocess.run(cmd, cwd=workdir, env=env, timeout=timeout,
                          stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def end_to_end(result: dict, setups: list[float]) -> tuple[dict, dict]:
    """Metric values and the sample count behind each."""
    lat, c = result["latencies"], result["cycle_len"]
    cycle_means = [sum(lat[i:i + c]) / c for i in range(0, len(lat) - c + 1, c)]
    attempted, failed = result["attempted"], result["failed"]
    solve = result["solve_s"]
    values = {
        "ops_per_s": len(lat) / sum(lat),
        "op_ms_p50": 1000 * statistics.median(cycle_means),
        "op_ms_p90": 1000 * statistics.quantiles(lat, n=10, method="inclusive")[8],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_kib"] / 1024,
        "ok_op_ratio": (attempted - failed) / attempted,
        "solve_s": statistics.median(solve),
        "epochs_to_target": result["epochs_to_target"][0],
    }
    samples = {"ops_per_s": f"{len(lat)} ops", "op_ms_p50": f"{len(cycle_means)} cycles",
               "op_ms_p90": f"{len(lat)} ops", "setup_s": f"{len(setups)} set-ups",
               "peak_rss_mb": "1 process", "ok_op_ratio": f"{attempted} ops",
               "solve_s": f"{len(solve)} solves", "epochs_to_target": f"{len(solve)} solves"}
    return values, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qgns" / "cli.py").is_file():
        print(f"perfbench: no qgns source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench-run"
    workdir = out_dir / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        plan = workloads.make_plan(args.workload, args.seed, workdir)
        plan.update(root=str(ROOT), seconds=args.seconds)
        plan_path = workdir / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        env = worker_env()
        timeout = args.seconds + 120

        def probe(i: int) -> dict:
            return run_worker(plan_path, workdir / f"setup{i}.json", workdir, env, 60,
                              "--setup-only")

        # half the set-up probes run before the workload process and half after it
        probes = 0 if args.trace else SETUP_PROBES
        before = [probe(i) for i in range(probes // 2)]
        extra = ["--trace", str(out_dir / f"spans-{args.workload}-s{args.seed}.jsonl")] \
            if args.trace else []
        result = run_worker(plan_path, workdir / "result.json", workdir, env, timeout, *extra)
        outputs = before + [result] + [probe(i) for i in range(probes // 2, probes)]
        setups = [out["setup_s"] for out in outputs]
        warm_ok = all(out["warmup_ok"] for out in outputs)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        layers = result["layers"]
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in LAYER_METRICS}
        samples = {name: f"{result['traced_ops']} traced ops" for name, _ in LAYER_METRICS}
    else:
        values, samples = end_to_end(result, setups)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    attempted, failed = result["attempted"], result["failed"]
    correct = failed == 0 and warm_ok and result.get("solve_reached", True)

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']} ({samples[name]})")
    print(f"{args.workload} failed_op_ratio {failed / attempted:.6g} ratio ({attempted} ops)")
    print(json.dumps({"machine": machine_facts(env, args.workload)}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
