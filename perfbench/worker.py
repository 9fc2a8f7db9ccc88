"""Closed-loop runner: one process, one client, one instance at a time.

It runs each corpus instance as a user does, through
`motifkit.cli.main(["solve", FILE, ...])`, back to back in the corpus order.
It measures whole passes over the corpus, so every run measures the same
mix: at least one, and as many as bring the measured time nearest to
`--seconds`.  The first instance is run once, untimed, before the clock
starts.  It writes one JSON
file with a record per run instance: exit status, captured output, and the
time from the call to its return (read, parse, estimate, solve, print).

Failures do not stop the loop:
- an interval timer ends an instance after `--limit` seconds (`timeout`);
- an address-space cap set with `resource.setrlimit` turns a runaway
  allocation into `MemoryError` (`memory`);
- exit code 3 is the program's own `CapacityError` (`exit3`);
- any other exception is recorded with its type (`error`).

Before each instance a short reference probe (`speed.py`) measures how fast
the machine runs at that moment; each record carries its time scaled to the
reference speed by the probes before and after it.

With `--trace 1` every instance runs twice in a row, once plain and once
with the spans of `spans.RUN_TABLE` installed, alternating which goes
first, so the tracing overhead is measured on the same instances.

    python3 perfbench/worker.py --corpus DIR --src SRC --seconds 20 \
        --limit 30 --trace 0 --out results.json
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

# Address-space cap of the worker: a runaway allocation raises MemoryError
# instead of taking the machine's memory.
MEMORY_CAP_BYTES = 2 * 1024**3


class InstanceTimeout(BaseException):
    """The per-instance limit ran out.

    Derived from BaseException so that no `except Exception` in the program
    can swallow it.
    """


def _on_alarm(signum, frame):
    raise InstanceTimeout


def solve_once(cli, argv, limit):
    """Run one `motifkit` command line under the time limit; one record."""
    out, err = io.StringIO(), io.StringIO()
    status, detail, code = "ok", "", None
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except InstanceTimeout:
        status = "timeout"
    except MemoryError:
        status = "memory"
    except Exception as exc:  # noqa: BLE001 - any crash is a counted failure
        status, detail = "error", f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if status == "ok" and code == 3:
        status = "exit3"
    elif status == "ok" and code not in (0, 1):
        status, detail = "error", f"exit code {code}: {err.getvalue().strip()}"
    return {
        "status": status,
        "seconds": elapsed,
        "stdout": out.getvalue(),
        "stderr": err.getvalue()[-2000:],
        "detail": detail,
    }


def run(corpus: Path, seconds: float, limit: float, trace: bool) -> dict:
    from motifkit import cli

    import speed

    manifest = json.loads((corpus / "manifest.json").read_text())
    argvs = [
        ["solve", str(corpus / item["file"])] + manifest["argv"]
        for item in manifest["instances"]
    ]
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()

    def traced(argv):
        tracer.install(spans.RUN_TABLE)
        try:
            return solve_once(cli, argv, limit)
        finally:
            tracer.uninstall()

    # Each record gets the speed probe run just before it and, once the next
    # probe is in, its time at the reference speed (`scaled_s`).
    unscaled = []

    def settle(now):
        for rec in unscaled:
            rec["scaled_s"] = speed.scale(rec["seconds"], rec["probe_s"], now)
        unscaled.clear()

    def measure(argv, index, solve):
        now = speed.probe()
        settle(now)
        rec = dict(solve(argv), index=index, probe_s=now)
        unscaled.append(rec)
        return rec

    def plain(argv):
        return solve_once(cli, argv, limit)

    speed.probe()
    warmup = measure(argvs[0], 0, plain)
    records = []
    plain_records = []
    begin = time.perf_counter()
    while True:
        pass_begin = time.perf_counter()
        for index, argv in enumerate(argvs):
            if tracer is None:
                records.append(measure(argv, index, plain))
            elif index % 2 == 0:
                plain_records.append(measure(argv, index, plain))
                records.append(measure(argv, index, traced))
            else:
                records.append(measure(argv, index, traced))
                plain_records.append(measure(argv, index, plain))
        now = time.perf_counter()
        # Another pass only if it would end nearer to the measuring time.
        if now - begin + (now - pass_begin) / 2 >= seconds:
            break
    wall = time.perf_counter() - begin
    settle(speed.probe())
    result = {
        "warmup": warmup,
        "records": records,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        result["plain"] = plain_records
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--corpus", required=True)
    parser.add_argument("--src", required=True, help="directory holding motifkit")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--limit", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))
    signal.signal(signal.SIGALRM, _on_alarm)
    sys.path.insert(0, args.src)
    result = run(Path(args.corpus), args.seconds, args.limit, bool(args.trace))
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
