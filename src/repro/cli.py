"""Command-line interface.

Everyday operations from a shell, mirroring how the paper's artifacts
would be consumed by a practitioner choosing a CRC:

    python -m repro report 0xBA0DC66B
    python -m repro hd 0x82608EDB 12112
    python -m repro weights 0x82608EDB 2975
    python -m repro breakpoints 0xBA0DC66B --hd-max 8 --n-max 4000
    python -m repro search --width 8 --target-hd 4 --bits 100
    python -m repro campaign --width 10 --target-hd 4 --bits 200 --checkpoint c.json
    python -m repro campaign --width 10 --parallel 2 --events run.jsonl
    python -m repro serve --width 10 --bits 200 --port 7337 --checkpoint farm.ckpt
    python -m repro work coordinator.lab:7337
    python -m repro dash run.jsonl --follow
    python -m repro report run.jsonl
    python -m repro crc CRC-32/IEEE-802.3 --hex 313233343536373839

``report`` is overloaded the way the word is: given a polynomial it
profiles the polynomial; given the path of an event log written by
``--events`` it renders the run's observability summary
(:mod:`repro.obs.report`).

Polynomials are given in the paper's implicit-+1 hex notation when
they have 32 bits (e.g. ``0xBA0DC66B``) or as full encodings with the
top term included (e.g. ``0x104C11DB7``, any width).
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

from repro import __version__
from repro.analysis.polyinfo import report_for
from repro.analysis.tables import render_table2
from repro.crc.catalog import CATALOG, get_spec
from repro.gf2.poly import degree
from repro.hd.breakpoints import hd_breakpoint_table
from repro.hd.hamming import hamming_distance
from repro.hd.weights import weight_profile
from repro.search.census import census_of, fewest_taps
from repro.search.exhaustive import SearchConfig, search_all


def parse_poly(text: str, notation: str = "auto") -> int:
    """Parse a polynomial argument into the full integer encoding.

    ``notation`` selects the reading:

    * ``"paper"`` -- the value is the paper's implicit-+1 notation
      (``0x82608EDB`` -> ``0x104C11DB7``), whatever its width.
    * ``"full"`` -- the value is a full encoding with the degree term
      and the (mandatory) +1 term present.
    * ``"auto"`` (historical heuristic) -- 32-bit values with the top
      bit set are treated as paper notation; anything else must be a
      full encoding.  An *odd* 32-bit value is ambiguous: it is also a
      valid degree-31 full encoding, so the heuristic warns and
      ``--notation full`` must be passed to get the degree-31 reading.
    """
    try:
        value = int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text}: not an integer") from None
    if value <= 0:
        raise argparse.ArgumentTypeError("polynomial must be positive")
    if notation == "paper":
        return (value << 1) | 1
    if notation == "full":
        if value & 1 == 0:
            raise argparse.ArgumentTypeError(
                f"{text}: full encodings need the +1 term"
            )
        if value.bit_length() < 2:
            raise argparse.ArgumentTypeError(
                f"{text}: full encodings need a degree term"
            )
        return value
    if notation != "auto":
        raise argparse.ArgumentTypeError(f"unknown notation {notation!r}")
    if value.bit_length() == 32 and value >> 31:
        if value & 1:
            warnings.warn(
                f"{text} is ambiguous: reading it as paper implicit-+1 "
                f"notation (degree 32, full encoding {(value << 1) | 1:#x}); "
                "pass --notation full to read it as a degree-31 full "
                "encoding, or --notation paper to silence this warning",
                stacklevel=2,
            )
        return (value << 1) | 1  # paper notation
    if value & 1 == 0:
        raise argparse.ArgumentTypeError(
            f"{text}: full encodings need the +1 term "
            "(or pass a 32-bit implicit-+1 value)"
        )
    return value


#: argparse dests that hold raw polynomial strings until the
#: ``--notation`` choice is known (resolved in :func:`main`).
_POLY_DESTS = ("poly", "poly_a", "poly_b", "link", "app")


def _open_events(path: str | None):
    """An :class:`~repro.obs.events.EventLog` on ``path``, or the
    shared no-op sink when no path was given (both context-manage)."""
    from repro.obs.events import NULL_EVENTS, EventLog

    return EventLog(path) if path else NULL_EVENTS


def cmd_report(args: argparse.Namespace) -> int:
    if isinstance(args.poly, str):
        # main() left the positional unparsed: it names an existing
        # path, so render the event log it contains instead.
        from repro.obs.live import check_log_path
        from repro.obs.report import RunReport

        problem = check_log_path(args.poly)
        if problem is not None:
            print(f"repro report: {problem}", file=sys.stderr)
            return 2
        rep = RunReport.from_path(args.poly)
        if args.json:
            rep.write_bench_json(args.json, name=args.bench_name)
        print(rep.render())
        return 0
    table = None
    if args.breakpoints:
        table = hd_breakpoint_table(
            args.poly, hd_max=args.hd_max, n_max=args.n_max
        )
    print(report_for(args.poly, table).render())
    return 0


def cmd_hd(args: argparse.Namespace) -> int:
    hd = hamming_distance(args.poly, args.bits, k_max=args.k_max)
    print(
        f"HD = {hd} at {args.bits}-bit data words "
        f"(detects all {hd - 1}-bit errors; some {hd}-bit errors escape)"
    )
    return 0


def cmd_weights(args: argparse.Namespace) -> int:
    prof = weight_profile(args.poly, args.bits, 4)
    for k, w in sorted(prof.items()):
        print(f"W{k} = {w}")
    return 0


def cmd_breakpoints(args: argparse.Namespace) -> int:
    table = hd_breakpoint_table(
        args.poly, hd_max=args.hd_max, n_max=args.n_max
    )
    print(f"HD bands for {args.poly:#x} (data-word bits, through {args.n_max}):")
    for hd, lo, hi in table.bands:
        hi_s = str(hi) if hi is not None else f">={args.n_max}"
        print(f"  HD {hd}: {lo} .. {hi_s}")
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    if args.width > 14:
        print("widths beyond 14 need the farm; see repro.dist", file=sys.stderr)
        return 2
    from repro.obs import metrics as obs_metrics

    cfg = SearchConfig.for_bits(
        args.width, args.target_hd, args.bits, backend=args.backend
    )
    registry = obs_metrics.MetricsRegistry() if args.metrics else None
    if registry is not None:
        obs_metrics.install(registry)
    try:
        with _open_events(args.events) as events:
            res = search_all(cfg, events=events)
            if registry is not None:
                events.emit("metrics.snapshot", metrics=registry.snapshot())
    finally:
        if registry is not None:
            obs_metrics.uninstall()
    print(
        f"{res.examined} candidates screened in {res.elapsed_seconds:.1f}s "
        f"({res.filtering_rate:.0f}/s); {len(res.survivors)} achieve "
        f"HD>={args.target_hd} at {args.bits} bits"
    )
    survivors = [r.poly for r in res.survivors]
    for p in sorted(survivors):
        print(f"  {p:#x}")
    if survivors:
        sparse = fewest_taps(survivors)[0]
        print(f"fewest taps: {sparse:#x} ({sparse.bit_count()} terms)")
        print(render_table2(census_of(survivors)))
    if registry is not None:
        print("metrics:")
        print(registry.render())
    return 0


#: Campaign exit codes beyond the usual 0 (success) / 2 (usage or
#: incompatible checkpoint): distinct values so wrapper scripts can
#: tell "some chunks were quarantined" from "interrupted, resume me".
EXIT_QUARANTINE = 3
EXIT_INTERRUPTED = 4


def _run_campaign_command(args: argparse.Namespace, run) -> int:
    """The front shared by ``campaign`` and ``serve``: build the
    search config, check ``--resume`` names a checkpoint, run, and map
    every checkpoint error to exit code 2 with an operator-facing
    message."""
    from repro.dist.checkpoint import (
        CheckpointCorrupt,
        CheckpointMismatch,
        CheckpointMissing,
    )

    cfg = SearchConfig.for_bits(
        args.width, args.target_hd, args.bits, backend=args.backend
    )
    if args.resume and not args.checkpoint:
        print("--resume requires --checkpoint PATH", file=sys.stderr)
        return 2
    try:
        return run(args, cfg)
    except CheckpointMissing as exc:
        print(f"cannot resume: {exc}", file=sys.stderr)
        return 2
    except CheckpointCorrupt as exc:
        print(
            f"cannot resume: {exc}\n"
            "every checkpoint generation failed verification; start a "
            "fresh run (without --resume) to recompute",
            file=sys.stderr,
        )
        return 2
    except CheckpointMismatch as exc:
        print(str(exc), file=sys.stderr)
        return 2


def _resume(coordinator, args: argparse.Namespace) -> None:
    """Apply ``--resume`` / ``--retry-quarantined`` to a campaign."""
    if args.resume:
        skipped = coordinator.resume(
            args.checkpoint, retry_quarantined=args.retry_quarantined
        )
        print(f"resumed from {args.checkpoint}: {skipped} chunks skipped")


def cmd_campaign(args: argparse.Namespace) -> int:
    if args.parallel < 1:
        print("--parallel must be a positive process count", file=sys.stderr)
        return 2
    return _run_campaign_command(args, _run_parallel_campaign)


def _finish_campaign(quarantined_ids: list[int], interrupted: str | None) -> int:
    """Map end-of-campaign state to the process exit code, printing
    the operator-facing explanation."""
    if interrupted is not None:
        print(
            f"campaign interrupted by {interrupted}; progress checkpointed "
            "-- rerun with --resume to continue",
            file=sys.stderr,
        )
        return EXIT_INTERRUPTED
    if quarantined_ids:
        ids = ", ".join(map(str, quarantined_ids))
        print(
            f"campaign finished with {len(quarantined_ids)} chunk(s) "
            f"quarantined after exhausting their retry budget: [{ids}]\n"
            "their candidates were NOT searched; rerun with "
            "--retry-quarantined to grant them a fresh budget",
            file=sys.stderr,
        )
        return EXIT_QUARANTINE
    return 0


def _run_parallel_campaign(args: argparse.Namespace, cfg: SearchConfig) -> int:
    from repro.dist.pool import ParallelCoordinator

    with _open_events(args.events) as events:
        runner = ParallelCoordinator(
            config=cfg,
            chunk_size=args.chunk_size,
            processes=args.parallel,
            checkpoint_path=args.checkpoint,
            progress_interval=args.progress_interval,
            log=print,
            events=events,
            collect_metrics=args.metrics,
            max_attempts=args.max_attempts,
            drain_grace=args.drain_grace,
        )
        _resume(runner, args)
        elapsed = runner.run()
    plural = "es" if args.parallel != 1 else ""
    return _summarize_campaign(
        runner, args,
        f"in {elapsed:.1f}s wall across {args.parallel} process{plural}",
    )


def _summarize_campaign(coord, args: argparse.Namespace, how: str) -> int:
    """The end-of-run summary of a pool or farm campaign, with each
    worker's books, mapped to the exit code."""
    print(coord.queue.progress())
    print(
        f"{len(coord.campaign.survivors)} survivors; "
        f"{coord.stats.completions} chunks computed {how}"
    )
    for name in sorted(coord.workers):
        book = coord.workers[name]
        line = (
            f"  {name}: {book.chunks} chunks, {book.examined} candidates, "
            f"{book.connections} connection(s)"
        )
        if book.lease_losses or book.expiries:
            line += (
                f", {book.expiries} expirie(s), "
                f"{book.lease_losses} lease loss(es)"
            )
        if book.benched:
            line += " [benched]"
        print(line)
    if args.checkpoint:
        print(f"campaign record written to {args.checkpoint}")
    if args.metrics:
        print("worker metrics (merged):")
        print(coord.metrics.render())
    return _finish_campaign(coord.queue.quarantined_ids, coord.interrupted)


def cmd_serve(args: argparse.Namespace) -> int:
    return _run_campaign_command(args, _run_farm_server)


def _run_farm_server(args: argparse.Namespace, cfg: SearchConfig) -> int:
    import asyncio

    from repro.dist.net import WorkServer
    from repro.dist.transport import TcpTransport

    with _open_events(args.events) as events:
        server = WorkServer(
            cfg,
            args.chunk_size,
            TcpTransport(args.host, args.port),
            lease_duration=args.lease,
            max_attempts=args.max_attempts,
            checkpoint_path=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            worker_fault_budget=args.worker_fault_budget,
            drain_grace=args.drain_grace,
            progress_interval=args.progress_interval,
            events=events,
            collect_metrics=args.metrics,
            log=print,
        )
        _resume(server, args)
        asyncio.run(server.serve())
    return _summarize_campaign(
        server, args, f"by {len(server.workers)} worker(s)"
    )


def cmd_work(args: argparse.Namespace) -> int:
    import asyncio
    import socket

    from repro.dist.net import WorkClient, WorkerKilled
    from repro.dist.transport import TcpTransport

    worker_id = args.id or f"{socket.gethostname()}-{os.getpid()}"
    client = WorkClient(
        args.address,
        TcpTransport(),
        worker_id,
        ack_timeout=args.ack_timeout,
        reconnect_base=args.reconnect_base,
        max_connect_attempts=args.max_connect_attempts,
        handle_signals=True,
        log=lambda msg: print(msg, file=sys.stderr, flush=True),
    )
    try:
        rc = asyncio.run(client.run())
    except ValueError as exc:  # malformed host:port
        print(str(exc), file=sys.stderr)
        return 2
    except WorkerKilled:  # only reachable under an injected fault plan
        return 1
    print(
        f"{worker_id}: {client.stats.chunks} chunks, "
        f"{client.stats.examined} candidates, "
        f"{client.stats.reconnects} reconnect(s), "
        f"{client.stats.lease_losses} lease loss(es)"
    )
    return rc


def cmd_dash(args: argparse.Namespace) -> int:
    from repro.obs.live import run_dash

    if args.interval <= 0:
        print("--interval must be positive", file=sys.stderr)
        return 2
    return run_dash(
        args.path,
        follow=args.follow and not args.once,
        interval=args.interval,
    )


def cmd_crc(args: argparse.Namespace) -> int:
    from repro.crc.backends import crc_compute

    spec = get_spec(args.name)
    data = bytes.fromhex(args.hex)
    value = crc_compute(spec, data, backend=args.engine)
    print(f"{spec.name}({args.hex}) = {value:#0{spec.width // 4 + 2}x}")
    return 0


def cmd_catalog(args: argparse.Namespace) -> int:
    for name, spec in sorted(CATALOG.items()):
        print(spec)
    return 0


def cmd_backends(args: argparse.Namespace) -> int:
    from repro.crc.backends import available_backends

    for name, spec in sorted(CATALOG.items()):
        print(f"{name}: {', '.join(available_backends(spec))}")
    return 0


def cmd_stacked(args: argparse.Namespace) -> int:
    from repro.network.stacked import stacked_hd

    analysis = stacked_hd(args.link, args.app, args.bits, k_max=args.k_max)
    print(analysis.render())
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.compare import compare
    from repro.hd.breakpoints import hd_breakpoint_table

    ta = hd_breakpoint_table(args.poly_a, hd_max=args.hd_max, n_max=args.n_max)
    tb = hd_breakpoint_table(args.poly_b, hd_max=args.hd_max, n_max=args.n_max)
    print(compare(f"{args.poly_a:#x}", ta, f"{args.poly_b:#x}", tb,
                  n_min=args.n_min, n_max=args.n_max).render())
    return 0


def cmd_serve_crc(args: argparse.Namespace) -> int:
    from repro.obs import metrics as obs_metrics
    from repro.obs import trace as obs_trace
    from repro.service.advice import AdviceStore
    from repro.service.server import CrcService, ServiceServer

    store = AdviceStore(
        args.cache or None, hd_max=args.hd_max, n_max=args.n_max
    )
    if args.warm or args.warm_only:
        computed = store.warm(
            progress=lambda msg: print(msg, file=sys.stderr, flush=True)
        )
        print(
            f"advice cache warm: {len(store.entries)} tables "
            f"({computed} computed) at {store.path or '<memory>'}",
            file=sys.stderr,
        )
        if args.warm_only:
            return 0
    registry = obs_metrics.MetricsRegistry() if args.metrics else None
    if registry is not None:
        obs_metrics.install(registry)
    try:
        with _open_events(args.events) as events:
            tracer = (
                obs_trace.Tracer(events=events)
                if events.enabled
                else obs_trace.NULL_TRACE
            )
            service = CrcService(
                store,
                metrics=registry or obs_metrics.NULL_METRICS,
                tracer=tracer,
                compute_on_miss=not args.no_compute,
            )
            server = ServiceServer(
                service,
                host=args.host,
                port=args.port,
                drain_grace=args.drain_grace,
                events=events,
            )
            return server.run(stdio=args.stdio)
    finally:
        if registry is not None:
            obs_metrics.uninstall()


def cmd_best(args: argparse.Namespace) -> int:
    from repro.search.optimize import best_for_length

    res = best_for_length(args.width, args.bits)
    print(
        f"best achievable HD at {args.bits} bits with a {args.width}-bit "
        f"CRC: {res.best_hd} ({len(res.achievers)} achievers, "
        f"{res.candidates_examined} candidates examined)"
    )
    print(f"recommended: {res.winner:#x}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CRC polynomial evaluation & search "
                    "(Koopman, DSN 2002 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Observability flags shared by the commands that do real work.
    observability = argparse.ArgumentParser(add_help=False)
    observability.add_argument(
        "--events", type=str, default=None, metavar="PATH",
        help="append a structured JSONL event log here (render it "
             "later with `repro report PATH`); off by default",
    )
    observability.add_argument(
        "--metrics", action="store_true",
        help="collect counters/histograms while running and print them at "
             "the end; off by default",
    )

    # Poly-taking commands share the notation selector; the raw string
    # is kept until main() knows the choice (the flag may follow the
    # positional on the command line).
    notation = argparse.ArgumentParser(add_help=False)
    notation.add_argument(
        "--notation", choices=("auto", "paper", "full"), default="auto",
        help="how to read polynomial arguments: the paper's implicit-+1 "
             "notation, the full encoding with the degree and +1 terms, "
             "or the historical auto heuristic (32-bit => paper), which "
             "warns on odd 32-bit values where the two readings diverge",
    )

    p = sub.add_parser("report", parents=[notation],
                       help="everything about one polynomial, or a run "
                            "summary of an --events log file")
    p.add_argument("poly", metavar="poly|events.jsonl",
                   help="a polynomial, or the path of an event log "
                        "written by `search`/`campaign --events`")
    p.add_argument("--breakpoints", action="store_true",
                   help="also compute HD bands (slower)")
    p.add_argument("--hd-max", type=int, default=8)
    p.add_argument("--n-max", type=int, default=3000)
    p.add_argument("--json", type=str, default=None, metavar="PATH",
                   help="(event-log reports) also write the "
                        "machine-readable BENCH_*.json summary here")
    p.add_argument("--bench-name", type=str, default="campaign",
                   help="bench name recorded in the --json envelope")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("hd", parents=[notation],
                       help="Hamming distance at a length")
    p.add_argument("poly")
    p.add_argument("bits", type=int)
    p.add_argument("--k-max", type=int, default=16)
    p.set_defaults(fn=cmd_hd)

    p = sub.add_parser("weights", parents=[notation],
                       help="exact W2..W4 at a length")
    p.add_argument("poly")
    p.add_argument("bits", type=int)
    p.set_defaults(fn=cmd_weights)

    p = sub.add_parser("breakpoints", parents=[notation],
                       help="HD bands (Table 1 column)")
    p.add_argument("poly")
    p.add_argument("--hd-max", type=int, default=8)
    p.add_argument("--n-max", type=int, default=3000)
    p.set_defaults(fn=cmd_breakpoints)

    p = sub.add_parser("search", parents=[observability],
                       help="exhaustive best-polynomial search")
    p.add_argument("--width", type=int, default=8)
    p.add_argument("--target-hd", type=int, default=4)
    p.add_argument("--bits", type=int, default=100)
    p.add_argument("--backend", choices=["packed", "scalar"],
                   default="packed",
                   help="screening kernel (packed: the vectorized "
                        "cascade; scalar: the per-candidate oracle)")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("campaign", parents=[observability],
                       help="distributed search campaign")
    p.add_argument("--width", type=int, default=10)
    p.add_argument("--target-hd", type=int, default=4)
    p.add_argument("--bits", type=int, default=200)
    p.add_argument("--backend", choices=["packed", "scalar"],
                   default="packed",
                   help="screening kernel inherited by every worker")
    p.add_argument("--parallel", type=int, default=1, metavar="N",
                   help="worker processes forked against a loopback "
                        "coordinator (default 1)")
    p.add_argument("--chunk-size", type=int, default=64)
    p.add_argument("--checkpoint", type=str, default=None,
                   help="write campaign progress here (periodically "
                        "and at exit): a small manifest at PATH, the "
                        "previous one at PATH.prev, and the records in "
                        "append-only logs PATH.<16 hex>.log beside it")
    p.add_argument("--resume", action="store_true",
                   help="load --checkpoint first and skip its "
                        "completed chunks (falls back to the rotated "
                        ".prev generation if the file is corrupt)")
    p.add_argument("--progress-interval", type=float, default=5.0,
                   help="seconds between progress summary lines")
    p.add_argument("--max-attempts", type=int, default=5,
                   help="retry budget per chunk before it is "
                        "quarantined (0 = retry forever)")
    p.add_argument("--retry-quarantined", action="store_true",
                   help="on --resume, grant checkpointed quarantined "
                        "chunks a fresh retry budget instead of "
                        "keeping them benched")
    p.add_argument("--drain-grace", type=float, default=5.0,
                   help="seconds a SIGTERM/SIGINT drain waits for "
                        "in-flight chunks before forfeiting them")
    p.set_defaults(fn=cmd_campaign)

    p = sub.add_parser("serve", parents=[observability],
                       help="campaign coordinator: lease chunks to "
                            "`repro work` clients over TCP "
                            "(repro-work/1 protocol)")
    p.add_argument("--width", type=int, default=10)
    p.add_argument("--target-hd", type=int, default=4)
    p.add_argument("--bits", type=int, default=200)
    p.add_argument("--backend", choices=["packed", "scalar"],
                   default="packed",
                   help="screening kernel advertised to every worker "
                        "in the hello handshake")
    p.add_argument("--chunk-size", type=int, default=64)
    p.add_argument("--host", default="127.0.0.1",
                   help="TCP bind address (default loopback; use "
                        "0.0.0.0 for a real farm)")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port; 0 (default) binds an ephemeral "
                        "port, announced as `work.listening host=H "
                        "port=P` on stdout")
    p.add_argument("--lease", type=float, default=30.0,
                   help="seconds a worker holds a chunk before a "
                        "silent lease is reclaimed (workers heartbeat "
                        "at a third of this)")
    p.add_argument("--checkpoint", type=str, default=None,
                   help="write campaign progress here every "
                        "--checkpoint-every completions and at exit: a "
                        "small manifest at PATH, the previous one at "
                        "PATH.prev, and the records in append-only logs "
                        "PATH.<16 hex>.log beside it")
    p.add_argument("--checkpoint-every", type=int, default=8,
                   help="completions between periodic checkpoints")
    p.add_argument("--resume", action="store_true",
                   help="load --checkpoint first and skip its "
                        "completed chunks")
    p.add_argument("--retry-quarantined", action="store_true",
                   help="on --resume, grant checkpointed quarantined "
                        "chunks a fresh retry budget")
    p.add_argument("--max-attempts", type=int, default=5,
                   help="retry budget per chunk before quarantine "
                        "(0 = retry forever)")
    p.add_argument("--worker-fault-budget", type=int, default=0,
                   help="bench a worker after this many of its leases "
                        "expire (0 = never bench)")
    p.add_argument("--drain-grace", type=float, default=5.0,
                   help="seconds a SIGTERM/SIGINT drain waits for "
                        "in-flight chunks before forfeiting them")
    p.add_argument("--progress-interval", type=float, default=10.0,
                   help="seconds between progress summary lines")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("work",
                       help="farm worker: lease, compute and report "
                            "chunks from a `repro serve` coordinator")
    p.add_argument("address", metavar="host:port",
                   help="the coordinator's announced address")
    p.add_argument("--id", default=None,
                   help="worker id (default hostname-pid); the "
                        "coordinator keys leases and accounting by it")
    p.add_argument("--ack-timeout", type=float, default=None,
                   help="seconds to wait for a reply before treating "
                        "the connection as dead (default: the "
                        "coordinator's lease duration)")
    p.add_argument("--reconnect-base", type=float, default=0.2,
                   help="first reconnect backoff in seconds (doubles "
                        "per attempt, jittered deterministically)")
    p.add_argument("--max-connect-attempts", type=int, default=8,
                   help="consecutive failed connections before giving "
                        "up with exit code 1")
    p.set_defaults(fn=cmd_work)

    p = sub.add_parser("dash",
                       help="live terminal dashboard over an --events "
                            "JSONL log (tail it while a campaign runs)")
    p.add_argument("path", metavar="events.jsonl",
                   help="the event log a campaign/search/service is "
                        "writing with --events")
    p.add_argument("--follow", "-f", action="store_true",
                   help="keep tailing and re-rendering until Ctrl-C "
                        "(default: render one frame and exit)")
    p.add_argument("--once", action="store_true",
                   help="render a single frame and exit (the default; "
                        "explicit flag for scripts)")
    p.add_argument("--interval", type=float, default=1.0,
                   help="seconds between frames with --follow "
                        "(default 1.0)")
    p.set_defaults(fn=cmd_dash)

    p = sub.add_parser("crc", help="compute a catalog CRC over hex bytes")
    p.add_argument("name", choices=sorted(CATALOG))
    p.add_argument("--hex", required=True)
    p.add_argument("--engine", default="auto",
                   help="kernel backend (auto, bitwise, bytewise, "
                        "wordwise; default auto)")
    p.set_defaults(fn=cmd_crc)

    p = sub.add_parser("catalog", help="list known CRC algorithms")
    p.set_defaults(fn=cmd_catalog)

    p = sub.add_parser("backends",
                       help="list generated kernel backends per catalog spec")
    p.set_defaults(fn=cmd_backends)

    p = sub.add_parser("stacked", parents=[notation],
                       help="joint HD of a link+app CRC stack")
    p.add_argument("link")
    p.add_argument("app")
    p.add_argument("bits", type=int)
    p.add_argument("--k-max", type=int, default=8)
    p.set_defaults(fn=cmd_stacked)

    p = sub.add_parser("compare", parents=[notation],
                       help="pairwise dominance analysis")
    p.add_argument("poly_a")
    p.add_argument("poly_b")
    p.add_argument("--n-min", type=int, default=8)
    p.add_argument("--n-max", type=int, default=1200)
    p.add_argument("--hd-max", type=int, default=8)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("serve-crc", parents=[observability],
                       help="CRC-as-a-service: NDJSON verify/checksum/"
                            "advise/hd over TCP or stdio")
    p.add_argument("--host", default="127.0.0.1",
                   help="TCP bind address (default loopback)")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port; 0 (default) binds an ephemeral port, "
                        "announced as `service.listening host=H port=P` "
                        "on stdout")
    p.add_argument("--stdio", action="store_true",
                   help="serve stdin/stdout instead of TCP (requests on "
                        "stdin, responses on stdout, logs on stderr)")
    p.add_argument("--cache", default="results/advice_cache.json",
                   metavar="PATH",
                   help="advice-cache JSON file (loaded if present, "
                        "updated on demand); '' keeps the store "
                        "in-memory only")
    p.add_argument("--warm", action="store_true",
                   help="precompute breakpoint tables for the paper + "
                        "catalog polynomials before serving (persisted "
                        "to --cache)")
    p.add_argument("--warm-only", action="store_true",
                   help="warm the cache and exit without serving")
    p.add_argument("--hd-max", type=int, default=6,
                   help="warm envelope: highest error weight per table")
    p.add_argument("--n-max", type=int, default=2048,
                   help="warm envelope: longest data word (bits) per table")
    p.add_argument("--no-compute", action="store_true",
                   help="answer `hd` only from cache: misses become "
                        "'uncached' errors instead of running the exact "
                        "(MITM) search in-request")
    p.add_argument("--drain-grace", type=float, default=5.0,
                   help="seconds a SIGTERM/SIGINT drain waits for "
                        "in-flight requests before closing connections")
    p.set_defaults(fn=cmd_serve_crc)

    p = sub.add_parser("best", help="best polynomial for a message length")
    p.add_argument("--width", type=int, default=8)
    p.add_argument("--bits", type=int, default=64)
    p.set_defaults(fn=cmd_best)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    notation = getattr(args, "notation", "auto")
    for dest in _POLY_DESTS:
        raw = getattr(args, dest, None)
        if isinstance(raw, str):
            if dest == "poly" and args.fn is cmd_report and os.path.exists(raw):
                continue  # an event-log path; cmd_report renders it
            try:
                setattr(args, dest, parse_poly(raw, notation))
            except argparse.ArgumentTypeError as exc:
                parser.error(str(exc))
    try:
        return args.fn(args)
    except BrokenPipeError:
        # stdout went away mid-listing (e.g. `repro backends | head`);
        # reopen it on devnull so interpreter shutdown doesn't traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
