"""The workload process: imports qgns from the checkout and runs one plan.

    python3 perfbench/worker.py PLAN.json RESULT.json [--setup-only] [--trace SPANS.jsonl]

It runs from the plan's work directory, so the argv file names resolve there.
One client drives `qgns.cli.execute` in a closed loop: the next op starts
when the previous one returns. Only the call itself is timed; each output is
then checked against its reference, and a non-zero exit, anything on stderr,
an exception or a mismatch counts the op as failed.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402

TRACE_CYCLES = 4


class Client:
    """Runs ops in order, op k being ops[k % len(ops)], and keeps their
    latencies and failures."""

    def __init__(self, cli, ops: list[dict], cycle_len: int = 1):
        self.cli = cli
        self.ops = ops
        self.cycle_len = cycle_len
        self.first_outputs: dict = {}
        self.k = 0
        self.latencies: list[float] = []
        self.failed = 0

    def run(self, op: dict) -> tuple[float, bool, str]:
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.execute(op["argv"])
        except Exception as exc:  # a traceback is a failed op, not a dead benchmark
            elapsed = perf_counter() - start
            print(f"op {op['argv'][:2]} raised {exc!r}", file=sys.stderr)
            return elapsed, False, ""
        elapsed = perf_counter() - start
        text = out.getvalue()
        ok = (code == 0 and not err.getvalue()
              and workloads.check_output(op, text, ".", self.first_outputs))
        if not ok:
            print(f"op {op['argv']} failed: exit {code}, stderr {err.getvalue()[:200]!r}",
                  file=sys.stderr)
        return elapsed, ok, text

    def step(self) -> tuple[dict, str]:
        op = self.ops[self.k % len(self.ops)]
        self.k += 1
        elapsed, ok, text = self.run(op)
        self.latencies.append(elapsed)
        self.failed += not ok
        return op, text if ok else ""

    def cycles(self, seconds: float = 0.0, count: int = 0, on_op=None, on_cycle=None) -> float:
        """Whole cycles until `seconds` have passed and `count` cycles are done
        (at least one); returns the time spent inside the calls."""
        first, start, done = len(self.latencies), perf_counter(), 0
        while True:
            for _ in range(self.cycle_len):
                op, text = self.step()
                if on_op is not None:
                    on_op(op, text, self.latencies[-1])
            done += 1
            if on_cycle is not None:
                on_cycle(done)
            if perf_counter() - start >= seconds and done >= count:
                return sum(self.latencies[first:])


class SolveClock:
    """Time from the initial model to the first toy op whose CSV shows the target accuracy."""

    def __init__(self):
        self.elapsed = 0.0
        self.reached = False
        self.solve_s: list[float] = []
        self.epochs: list[int] = []

    def __call__(self, op: dict, text: str, latency: float) -> None:
        ref = op["ref"]
        if ref["epoch0"] == 0:
            self.elapsed, self.reached = 0.0, False
        if self.reached or not text:
            return
        self.elapsed += latency
        for row, acc in enumerate(workloads.train_accuracies(text)):
            if acc >= workloads.TOY_TARGET_ACCURACY:
                self.reached = True
                self.solve_s.append(self.elapsed)
                self.epochs.append(ref["epoch0"] + row)
                return


def import_qgns(root: Path):
    sys.path.insert(0, str(root / "src"))
    import qgns.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        raise RuntimeError(f"qgns was imported from {cli.__file__}, not from {root / 'src'}")
    return cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("plan")
    parser.add_argument("result")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default=None, help="write spans here and report layers")
    args = parser.parse_args(argv)
    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    seconds = plan["seconds"]

    start = perf_counter()
    cli = import_qgns(Path(plan["root"]))
    client = Client(cli, plan["ops"], plan["cycle_len"])
    _, warm_ok, _ = client.run(client.ops[0])  # untimed warm-up: the loop starts at op 0 again
    result = {"setup_s": perf_counter() - start, "warmup_ok": warm_ok}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result), encoding="utf-8")
        return 0

    clock = SolveClock()
    toy = Client(cli, plan["toy"])

    def toy_step(_cycles_done: int = 0) -> None:
        if clock.reached:
            toy.k = 0  # start the next segment from the initial model
        op, text = toy.step()
        clock(op, text, toy.latencies[-1])

    if plan["workload"] == "toy_train":
        busy = client.cycles(seconds, on_op=clock)
    elif args.trace:
        busy = client.cycles(seconds)
    else:
        # The toy chain runs alongside, one op after each cycle, so each time to
        # solution spans part of the run instead of one burst of it.
        busy = client.cycles(seconds, on_cycle=toy_step)
    result.update(latencies=list(client.latencies), cycle_len=client.cycle_len)

    if args.trace:
        from tracing import Tracer

        untraced = len(client.latencies)
        tracer = Tracer()
        tracer.install()
        try:
            traced_busy = client.cycles(count=TRACE_CYCLES)
        finally:
            tracer.uninstall()
        traced = len(client.latencies) - untraced
        overhead_ratio = (traced / traced_busy) / (untraced / busy)
        result.update(layers=tracer.metrics(traced, overhead_ratio), traced_ops=traced)
        tracer.write(args.trace)
    else:
        # Finish the toy segment; a toy_train run too short to reach the target
        # in its loop runs one fresh segment.
        while not clock.solve_s and toy.k < len(toy.ops):
            toy_step()
        if not clock.solve_s:  # never reached: report the whole segment, mark the run wrong
            clock.solve_s.append(clock.elapsed)
            clock.epochs.append(len(toy.ops) * workloads.TOY_EPOCHS_PER_OP)
            result["solve_reached"] = False
        client.failed += toy.failed
        result.update(solve_s=clock.solve_s, epochs_to_target=clock.epochs,
                      peak_rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    result.update(attempted=len(client.latencies) + len(toy.latencies),
                  failed=client.failed)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
