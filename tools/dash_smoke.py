#!/usr/bin/env python
"""Dashboard smoke gate: a real campaign's log through ``repro dash``.

The CI-sized proof of the acceptance criterion for the live tier: run
a tiny but real ``repro campaign --parallel --events`` as an operator
would, replay the log through ``repro dash <log> --once`` (a second
subprocess -- the actual CLI, not the library), and assert the frame
shows the load-bearing lines: the progress bar at completion, a
throughput figure, per-chunk latency percentiles from the histogram
path, the worker line, and (since tracing rides along with
``--events``) the span waterfall with the remote compute span.  The
error paths ride along: pointing ``dash`` and ``report`` at a
directory or an empty file must exit 2 with a one-line diagnosis.

Exit status 0 iff every assertion holds (``make dash-smoke``).
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def run_cli(*args: str, expect_rc: int = 0) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=env, timeout=600,
    )
    check(
        proc.returncode == expect_rc,
        f"repro {args[0]} exited {proc.returncode}, wanted {expect_rc}:\n"
        f"{proc.stdout}{proc.stderr}",
    )
    return proc


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-dash-smoke-") as scratch:
        log = os.path.join(scratch, "run.jsonl")
        ckpt = os.path.join(scratch, "campaign.json")

        # 1. A real two-process campaign narrating into the log; its
        # summary carries each worker's books.
        summary = run_cli(
            "campaign", "--width", "8", "--target-hd", "4", "--bits", "100",
            "--parallel", "2", "--chunk-size", "8",
            "--checkpoint", ckpt, "--events", log, "--metrics",
        ).stdout
        check(os.path.getsize(log) > 0, "campaign wrote no events")
        books = re.findall(r"^  (pool-\d+): (\d+) chunks", summary, re.M)
        check(
            [name for name, _ in books] == ["pool-0", "pool-1"],
            f"summary lacks the two workers' books:\n{summary}",
        )
        check(
            sum(int(chunks) for _, chunks in books) == 16,
            f"worker books do not add up to the campaign:\n{summary}",
        )

        # 2. One dashboard frame over that log, via the CLI.
        frame = run_cli("dash", log, "--once").stdout
        for needle in (
            "repro dash",
            "progress: [",
            "throughput:",
            "polys/s",
            "p50=",
            "p95=",
            "p99=",
            "workers: 2 configured",
            "health:",
            "eta: complete",
            "last trace (chunk",
            "chunk.compute",
            "hosts: pool-0 ",
            "; pool-1 ",
        ):
            check(needle in frame, f"frame lacks {needle!r}:\n{frame}")
        match = re.search(r"progress: \[#+\] (\d+)/(\d+) chunks", frame)
        check(match is not None, f"no full progress bar in:\n{frame}")
        check(match.group(1) == match.group(2), "campaign not complete")
        latency = re.search(r"p95=([\d.]+)ms", frame)
        check(float(latency.group(1)) > 0.0, "p95 latency is zero")

        # 3. The report reads the same log and carries the percentiles.
        report = run_cli("report", log).stdout
        check("chunk latency: p50=" in report, f"report lacks latency:\n{report}")
        for needle in ("workers: 2 host(s)", "    pool-0", "    pool-1"):
            check(needle in report, f"report lacks {needle!r}:\n{report}")

        # 4. Friendly failures: directories and empty files are
        # diagnosed on stderr with exit 2, for dash and report both.
        empty = os.path.join(scratch, "empty.jsonl")
        open(empty, "w").close()
        for args, needle in (
            (("dash", scratch, "--once"), "is a directory"),
            (("dash", empty, "--once"), "is empty"),
            (("report", scratch), "is a directory"),
            (("report", empty), "is empty"),
        ):
            proc = run_cli(*args, expect_rc=2)
            err = proc.stdout + proc.stderr
            check(needle in err, f"{args} lacks {needle!r}: {err}")

    print("dash-smoke: campaign -> dash --once -> report all OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
