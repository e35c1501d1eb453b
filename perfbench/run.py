"""Benchmark for the intervalcolor CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

One client runs the workload's ops in a closed loop, one op at a time,
each in-process through intervalcolor.cli.main with stdout captured.  A
pass (the workload's whole op list) runs in a fresh child process with
an address-space cap and a wall-clock timeout.  A run makes --seconds
divided by the workload's nominal pass time passes, rounded, at least
one, and untraced at least the workload's MIN_PASSES.  Every op's
stdout is then checked by perfbench/check.py, outside the timed region.
With --trace 1 each pass is followed by a traced pass of the same ops,
which yields the per-layer metrics (perfbench/tracing.py).

Standard output: a line describing the run, a line of detail (every
metric with its unit and sample count, per-command latencies, exact
counts, fingerprints), and last the result object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

import check
import tracing
import workloads

COMMANDS = ("color", "verify", "arcs", "hypergraph", "online", "adversary", "reduce", "decide", "oracle")
ADDRESS_SPACE_CAP = 2 << 30  # bytes per pass process
RUN_LIMIT_S = 170.0  # a whole run, set-up and checking included
RESERVE_S = 15.0  # kept back from a pass's timeout for checking and output
SETUP_SAMPLES = 9  # spread over the run's passes, so a slow spell of the machine weighs less
IMPORT_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import intervalcolor.cli; print(time.perf_counter() - t)"
)


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0, help="op time to measure, at nominal speed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for a quick end-to-end check")
    return p.parse_args(argv)


def tree_digest(*dirs: Path) -> str:
    """sha256 over the names and bytes of the Python files under dirs."""
    h = hashlib.sha256()
    for top in dirs:
        for path in sorted(top.rglob("*.py")):
            h.update(str(path.relative_to(top)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def measure_setup(src: Path, samples: int) -> List[float]:
    """Import times of intervalcolor.cli, each in a fresh interpreter."""
    times = []
    for _ in range(samples):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_CODE, str(src)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        times.append(float(done.stdout))
    return times


def run_pass(ops: List[Dict], src: Path, out: Path, trace: bool, timeout: float, cap: int = ADDRESS_SPACE_CAP):
    """Run one pass in a child process; return (records by op id, peak RSS MB, trace payload, error)."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    spec = {"src": str(src), "ops": ops, "out": str(out), "trace": trace, "rlimit_as": cap}
    (out / "spec.json").write_text(json.dumps(spec))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    child = Path(__file__).resolve().parent / "child.py"
    proc = subprocess.Popen(
        [sys.executable, str(child), str(out / "spec.json")],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        env=env,
    )
    error = None
    try:
        _, err = proc.communicate(timeout=max(timeout, 1.0))
        if proc.returncode != 0:
            error = f"pass process exited {proc.returncode}: {err.decode(errors='replace')[-300:]}"
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        error = f"pass timed out after {timeout:.0f} s"
    records, peak = {}, None
    results = out / "results.jsonl"
    if results.exists():
        for line in results.read_text().splitlines():
            rec = json.loads(line)
            if "id" in rec:
                records[rec["id"]] = rec
            else:
                peak = rec["peak_rss_mb"]
    spans = out / "spans.json"
    payload = json.loads(spans.read_text()) if spans.exists() else None
    return records, peak, payload, error


class Tally:
    """Checks passes and accumulates their op results."""

    def __init__(self, ops: List[Dict], checker: check.Checker, first_sha: Dict[str, str]):
        self.ops = ops
        self.checker = checker
        self.first_sha = first_sha  # op id -> stdout sha256 of the first pass, shared
        self.latency: Dict[str, List[float]] = defaultdict(list)
        self.pass_s: List[float] = []
        self.peaks: List[float] = []
        self.items = 0
        self.attempted = 0
        self.failures: List[str] = []
        self.counts: Dict[str, int] = {}

    def settle(self, out: Path, records: Dict, peak: Optional[float], pass_error: Optional[str]) -> None:
        """Check one pass and record its op times."""
        outputs: Dict[str, str] = {}
        total = 0.0
        counts: Dict[str, int] = defaultdict(int)
        for op in self.ops:
            self.attempted += 1
            rec = records.get(op["id"])
            if rec is None:
                self.failures.append(f"{op['id']}: not run ({pass_error or 'pass ended early'})")
                continue
            total += rec["s"]
            if rec["error"]:
                self.failures.append(f"{op['id']}: {rec['error']}")
                continue
            expected = self.first_sha.setdefault(op["id"], rec["sha"])
            if rec["sha"] != expected:
                self.failures.append(f"{op['id']}: stdout differs from the first pass")
                continue
            stdout = (out / f"{op['id']}.out").read_text()
            outputs[op["id"]] = stdout
            try:
                items, op_counts = self.checker.check(op, rec["rc"], stdout, outputs)
            except (check.CheckFailed, KeyError, TypeError, ValueError) as exc:
                said = f" (stderr: {rec['stderr'].strip()[-200:]})" if rec["stderr"].strip() else ""
                self.failures.append(f"{op['id']}: {type(exc).__name__}: {exc}{said}")
                continue
            for key, value in op_counts.items():
                counts[key] += value
            self.latency[op["cmd"]].append(rec["s"])
            self.items += items
        self.pass_s.append(total)
        if peak is not None:
            self.peaks.append(peak)
        if not self.counts:
            self.counts = dict(counts)


def nearest_rank(values: List[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def tail(values: List[float]):
    """The highest of p99.9, p99, p95, p90, p50 with at least ten samples beyond it."""
    for p in (99.9, 99, 95, 90, 50):
        if len(values) * (1 - p / 100) >= 10:
            return {"p": p, "s": nearest_rank(values, p)}
    return None


def compare_record(path: Path, record: Dict) -> List[str]:
    """Exact counts and digests must repeat between runs of the same program and seed."""
    problems = []
    if path.exists():
        old = json.loads(path.read_text())
        for key, value in record.items():
            if key in old and old[key] != value:
                problems.append(f"{key} differs from an earlier run of the same program and seed")
        old.update(record)
        record = old
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    return problems


def describe(args: argparse.Namespace, program: str) -> Dict:
    loadavg = Path("/proc/loadavg")
    return {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "smoke": args.smoke,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "loadavg": loadavg.read_text().split()[:3] if loadavg.exists() else None,
        "program_sha256": program,
    }


def per_layer(layer_runs: List[Dict[str, float]], tally: Tally, traced_tally: Tally):
    """Medians over traced passes, per-command latencies, and the tracing overhead.

    Returns (metrics, sample count of each metric).
    """
    metrics, samples = {}, {}
    for key in tracing.summarize([], {}):
        metrics[key] = statistics.median([run[key] for run in layer_runs] or [0.0])
        samples[key] = len(layer_runs)
    for cmd in COMMANDS:
        metrics[f"{cmd}_s"] = statistics.median(tally.latency[cmd]) if tally.latency[cmd] else 0.0
        samples[f"{cmd}_s"] = len(tally.latency[cmd])
    if tally.pass_s and traced_tally.pass_s:
        metrics["trace.overhead_s"] = statistics.median(traced_tally.pass_s) - statistics.median(tally.pass_s)
    else:
        metrics["trace.overhead_s"] = 0.0
    samples["trace.overhead_s"] = min(len(tally.pass_s), len(traced_tally.pass_s))
    return metrics, samples


def end_to_end(setup: List[float], tally: Tally, failed: int):
    """The end-to-end metrics and the sample count of each."""
    medians = [statistics.median(v) for v in tally.latency.values() if v]
    total = sum(tally.pass_s)
    metrics = {
        "setup_s": statistics.median(setup),
        "items_per_s": tally.items / total if total else 0.0,
        # geometric mean, so each command weighs the same however long it runs
        "cmd_median_gm_s": math.exp(statistics.fmean(math.log(m) for m in medians)) if medians else 0.0,
        "peak_rss_mb": statistics.median(tally.peaks) if tally.peaks else 0.0,
        "ok_frac": (tally.attempted - failed) / tally.attempted,
    }
    samples = {
        "setup_s": len(setup),
        "items_per_s": len(tally.pass_s),
        "cmd_median_gm_s": len(medians),
        "peak_rss_mb": len(tally.peaks),
        "ok_frac": tally.attempted,
    }
    return metrics, samples


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    began = time.monotonic()
    root = Path.cwd()
    src = root / "src"
    if not (src / "intervalcolor" / "cli.py").is_file():
        print(f"error: no program at {src / 'intervalcolor'}; run from the repository root", file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    program = tree_digest(src / "intervalcolor")
    print(json.dumps(describe(args, program)), flush=True)
    name = f"{args.workload}-{args.seed}" + ("-smoke" if args.smoke else "")
    work = root / ".bench_work" / name
    ops, input_sha = workloads.build(args.workload, args.seed, args.smoke, work)
    setup: List[float] = []
    if not args.trace:
        measure_setup(src, 1)  # warms the byte-code cache

    checker, first_sha = check.Checker(), {}
    tally = Tally(ops, checker, first_sha)
    traced_tally = Tally(ops, checker, first_sha)
    layer_runs: List[Dict[str, float]] = []
    trace_counts: Dict[str, int] = {}
    # the pass count follows from --seconds and the op list alone, never
    # from measured speed: a fast pass must not buy another one, or runs
    # that happened to start fast would average over more work than the rest
    nominal = workloads.PASS_S[args.workload] * (2 if args.trace else 1)
    passes = max(1, math.floor(args.seconds / nominal + 0.5))
    if not args.trace:
        passes = max(passes, workloads.MIN_PASSES.get(args.workload, 1))
    pass_dir = work / f"pass-{os.getpid()}"
    try:
        for _ in range(passes):
            cycle_began = time.monotonic()
            if not args.trace:
                setup += measure_setup(src, math.ceil(SETUP_SAMPLES / passes))
            for traced in (False, True) if args.trace else (False,):
                timeout = began + RUN_LIMIT_S - RESERVE_S - time.monotonic()
                records, peak, payload, error = run_pass(ops, src, pass_dir, traced, timeout)
                (traced_tally if traced else tally).settle(pass_dir, records, peak, error)
                if payload is not None:
                    layer_runs.append(tracing.summarize(payload["spans"], payload["counts"]))
                    trace_counts = payload["counts"]
                    shutil.copy(pass_dir / "spans.json", work / "spans.json")
            left = began + RUN_LIMIT_S - RESERVE_S - time.monotonic()
            if 2 * (time.monotonic() - cycle_began) > left or tally.failures or traced_tally.failures:
                break
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)

    failures = tally.failures + traced_tally.failures
    if args.trace:
        metrics, samples = per_layer(layer_runs, tally, traced_tally)
    else:
        metrics, samples = end_to_end(setup, tally, len(failures))
    record = {"inputs": input_sha, "stdout": first_sha, "counts": tally.counts}
    if args.trace:
        record["trace_counts"] = trace_counts
    # keyed by program and benchmark code, so only runs of the same code are compared
    code = tree_digest(src / "intervalcolor", Path(__file__).resolve().parent)[:16]
    problems = compare_record(work.parent / "records" / f"{code}-{name}.json", record)
    detail = {
        "metrics": {key: {"value": value, "unit": units[key], "samples": samples[key]} for key, value in metrics.items()},
        "passes": len(tally.pass_s),
        "pass_s": tally.pass_s,
        "commands": {
            cmd: {"samples": len(v), "median_s": statistics.median(v), "tail": tail(v)}
            for cmd, v in sorted(tally.latency.items())
            if v
        },
        "counts": tally.counts,
        "trace_counts": trace_counts,
        "input_sha256": hashlib.sha256(json.dumps(input_sha, sort_keys=True).encode()).hexdigest(),
        "stdout_sha256": hashlib.sha256(json.dumps(first_sha, sort_keys=True).encode()).hexdigest(),
        "failures": failures[:20],
        "problems": problems,
        "run_s": time.monotonic() - began,
    }
    print(json.dumps({"detail": detail}), flush=True)
    for line in failures[:20] + problems:
        print(f"failed: {line}", file=sys.stderr)

    result = {
        "correct": not failures and not problems,
        "attempted": tally.attempted + traced_tally.attempted,
        "failed": len(failures),
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
