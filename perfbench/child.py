"""One pass of a workload, run in a fresh child process.

Usage: python3 perfbench/child.py SPEC.json

The spec names the program's source directory, the ops, an output
directory, an address-space cap, and whether to trace.  Ops run one at a
time through intervalcolor.cli.main with stdout and stderr captured.
After each op its stdout goes to OUT/<op id>.out and one JSON line
(id, exit code, seconds, sha256) is appended to OUT/results.jsonl, so a
pass that is killed part way still reports the ops it finished.  A
traced pass also writes OUT/spans.json when it ends.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    cap = spec["rlimit_as"]
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    src = str(Path(spec["src"]).resolve())
    sys.path.insert(0, src)
    from intervalcolor import cli

    if not str(Path(cli.__file__).resolve()).startswith(src):
        raise SystemExit(f"intervalcolor imported from {cli.__file__}, not {src}")
    out = Path(spec["out"])
    recorder = None
    if spec["trace"]:
        import tracing  # the script's own directory is first on sys.path

        recorder = tracing.Recorder()
        tracing.install(recorder)
    # what is alive now lives for the whole pass; frozen out of the
    # collector, it makes the collection before each op nearly free
    gc.collect()
    gc.freeze()

    with open(out / "results.jsonl", "w", encoding="utf-8") as results:
        for op in spec["ops"]:
            argv = [str(out / f"{a[1:]}.out") if a.startswith("@") else a for a in op["argv"]]
            gc.collect()
            stdout, stderr = io.StringIO(), io.StringIO()
            error = None
            started = time.perf_counter()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    if recorder is None:
                        rc = cli.main(argv)
                    else:
                        recorder.op = op["id"]
                        rc = recorder.call("cli.main", cli.main, (argv,), {})
            except MemoryError:
                rc, error = None, "memory cap"
            except Exception as exc:  # an escaped exception fails this op, not the pass
                rc, error = None, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - started
            data = stdout.getvalue().encode()
            (out / f"{op['id']}.out").write_bytes(data)
            record = {
                "id": op["id"],
                "rc": rc,
                "s": seconds,
                "sha": hashlib.sha256(data).hexdigest(),
                "stderr": stderr.getvalue()[-500:],
                "error": error,
            }
            results.write(json.dumps(record) + "\n")
            results.flush()
            if error == "memory cap":
                break
        if recorder is not None:
            payload = {"spans": recorder.spans, "counts": dict(recorder.counts)}
            (out / "spans.json").write_text(json.dumps(payload))
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        results.write(json.dumps({"peak_rss_mb": peak_mb}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
