#!/usr/bin/env python
"""Service smoke gate: a real ``repro serve-crc`` under a scripted client.

The CI-sized proof that the serving layer works end to end as an
operator would run it: spawn the server as a subprocess on an
ephemeral loopback port (with the committed advice cache, metrics and
an event log on), run a scripted NDJSON session covering every op
plus the error paths, SIGTERM it, and assert the whole story --
responses correct, exit status 0, ``service.start`` /
``service.drain`` / ``service.stop`` in the event log, and the final
``metrics.snapshot`` counters agreeing with the requests we sent
(`make service-smoke`, wired into CI alongside tier-1 and
dash-smoke).

Exit status 0 iff every assertion holds.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.crc.catalog import get_spec  # noqa: E402
from repro.crc.codeword import append_fcs  # noqa: E402
from repro.obs.events import read_events  # noqa: E402

CACHE = os.path.join(REPO, "results", "advice_cache.json")

#: The scripted session: (request, assertion) pairs.  Assertions are
#: names of checker functions below.
SPEC = get_spec("CRC-32/IEEE-802.3")
FRAME = append_fcs(SPEC, b"service smoke payload")


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def scripted_session(port: int) -> dict[str, int]:
    """Run the client script; returns the op counts it expects the
    server's final metrics snapshot to report."""
    sent: dict[str, int] = {}
    errors = 0
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sk:
        f = sk.makefile("rw")

        def ask(request: dict) -> dict:
            f.write(json.dumps(request) + "\n")
            f.flush()
            return json.loads(f.readline())

        out = ask({"op": "ping", "id": 0})
        check(out["ok"] and out["id"] == 0, f"ping failed: {out}")

        out = ask({"op": "checksum", "spec": SPEC.name,
                   "data": b"123456789".hex()})
        check(out["crc"] == "0xcbf43926", f"checksum wrong: {out}")

        out = ask({"op": "verify", "spec": SPEC.name, "frame": FRAME.hex()})
        check(out["valid"] is True, f"residue verify failed: {out}")

        out = ask({"op": "advise", "length": 1500, "hd": 4})
        check(out["best"] is not None and out["best"]["source"] == "cache",
              f"advise not cache-served: {out}")

        out = ask({"op": "hd", "poly": "0xBA0DC66B", "length": 1024})
        check(out["hd"] == 6 and out["source"] == "cache",
              f"hd not cache-served: {out}")

        for op in ("ping", "checksum", "verify", "advise", "hd"):
            sent[op] = sent.get(op, 0) + 1

        # Error paths must answer too, and count as errors, not ops.
        out = ask({"op": "frobnicate"})
        check(out["error"]["code"] == "unknown-op", f"unexpected: {out}")
        out = ask({"op": "checksum", "spec": "CRC-999", "data": "00"})
        check(out["error"]["code"] == "unknown-spec", f"unexpected: {out}")
        errors += 2
    sent["errors"] = errors
    return sent


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        events_path = os.path.join(tmp, "events.jsonl")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO, "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve-crc",
             "--cache", CACHE, "--no-compute", "--metrics",
             "--events", events_path],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env, cwd=REPO,
        )
        try:
            announce = proc.stdout.readline().strip()
            check(announce.startswith("service.listening "),
                  f"bad announce line: {announce!r}")
            port = int(announce.rsplit("port=", 1)[1])
            print(f"server up on port {port}")

            sent = scripted_session(port)
            print(f"scripted session done: {sent}")

            proc.send_signal(signal.SIGTERM)
            check(proc.wait(timeout=60) == 0,
                  f"drain exit code {proc.returncode}")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

        events = {}
        for record in read_events(events_path):
            events.setdefault(record["event"], []).append(record)
        for name in ("service.start", "service.drain", "service.stop"):
            check(name in events, f"missing {name} event")
        check(events["service.drain"][0]["signal"] == "SIGTERM",
              "drain not attributed to SIGTERM")
        total = sum(v for k, v in sent.items() if k != "errors")
        check(events["service.stop"][0]["requests"] == total + sent["errors"],
              "service.stop request count mismatch")

        counters = events["metrics.snapshot"][0]["metrics"]["counters"]
        for op, n in sent.items():
            if op == "errors":
                continue
            check(counters.get(f"service.request.{op}") == n,
                  f"counter service.request.{op} != {n}: {counters}")
        check(counters.get("service.request.error") == sent["errors"],
              f"error counter mismatch: {counters}")
        print("event log and metrics agree with the scripted session")
    print("service smoke OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
