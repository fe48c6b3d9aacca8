"""Command-line interface: generate workloads, replay streams, profile.

Subcommands
-----------
``gen``
    Generate an update-stream file from a synthetic workload.
``run``
    Replay a stream file through an algorithm; print per-run summary,
    work profile, and (optionally) verify maximality every batch.
``static``
    Run the static parallel greedy matcher on an edge-list file.
``serve``
    Durable replay: journal every batch (write-ahead) with periodic
    checkpoints into a directory (``--journal DIR``), or recover a
    previous run from one (``--recover DIR``), certify it against an
    uninterrupted oracle replay, and optionally continue serving.
    ``--shards K`` serves through K vertex-partitioned shard processes
    (per-shard journals, two-phase cross-shard handoff, merged certified
    matching — see docs/sharding.md); recovery autodetects sharded roots
    by their ``sharding.json`` manifest.

Observability
-------------
``run`` and ``serve`` both publish live telemetry through
:mod:`repro.obs`: ``--metrics-port PORT`` serves Prometheus text
exposition at ``http://127.0.0.1:PORT/metrics`` for the duration of the
command, and ``--events FILE`` appends every batch-lifecycle span to a
JSONL event log for offline analysis (``repro.obs.read_events``,
``RunTrace.from_events``).  See docs/observability.md for the metric
catalog and span taxonomy.

``--selftest``
    Replay a canned workload through both structure backends, verifying
    the Definition 4.1 invariants and an independently-checked matching
    certificate after every batch, and cross-checking that the two
    backends agree on costs and matching exactly.

Examples
--------
::

    python -m repro gen --kind er --n 100 --m 1000 --batch 100 --seed 1 --out s.txt
    python -m repro run --stream s.txt --algo paper --check
    python -m repro static --edges graph.txt --seed 2
    python -m repro serve --journal state/ --stream s.txt --seed 1
    python -m repro serve --recover state/ --certify
    python -m repro --selftest
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from repro import native
from repro.analysis.profiles import work_profile
from repro.analysis.reporting import format_table
from repro.baselines import BGSStyle, GTStyle, NaiveDynamic, SolomonStyle, StaticRecompute
from repro.core.dynamic_matching import DynamicMatching
from repro.parallel.ledger import Ledger
from repro.static_matching.parallel_greedy import parallel_greedy_match
from repro.workloads.adversary import (
    FifoAdversary,
    LifoAdversary,
    RandomOrderAdversary,
    VertexTargetingAdversary,
)
from repro.workloads.generators import (
    erdos_renyi_edges,
    random_hypergraph_edges,
    star_edges,
)
from repro.workloads.io import read_edge_list, read_stream, write_stream
from repro.workloads.runner import run_stream, summarize
from repro.workloads.streams import insert_then_delete_stream, sliding_window_stream

ALGOS = {
    "paper": lambda rank, seed: DynamicMatching(rank=rank, seed=seed),
    "gt": lambda rank, seed: GTStyle(rank=rank, seed=seed),
    "static": lambda rank, seed: StaticRecompute(rank=rank, seed=seed),
    "naive": lambda rank, seed: NaiveDynamic(rank=rank),
    "random-mate": lambda rank, seed: SolomonStyle(rank=rank, seed=seed),
    "bgs": lambda rank, seed: BGSStyle(rank=rank, seed=seed),
}

ADVERSARIES = {
    "random": lambda rng: RandomOrderAdversary(rng),
    "fifo": lambda rng: FifoAdversary(),
    "lifo": lambda rng: LifoAdversary(),
    "vertex": lambda rng: VertexTargetingAdversary(rng),
}


def _cmd_gen(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    if args.kind == "er":
        edges = erdos_renyi_edges(args.n, args.m, rng)
    elif args.kind == "star":
        edges = star_edges(args.n)
    elif args.kind == "hyper":
        edges = random_hypergraph_edges(args.n, args.m, args.rank, rng)
    else:  # pragma: no cover — argparse choices guard this
        raise AssertionError(args.kind)

    if args.window:
        stream = sliding_window_stream(edges, window=args.window, batch_size=args.batch)
    else:
        adv = ADVERSARIES[args.adversary](np.random.default_rng(args.seed + 1))
        stream = insert_then_delete_stream(edges, args.batch, adv)
    write_stream(args.out, stream)
    print(f"wrote {len(stream)} batches ({sum(b.size for b in stream)} updates) to {args.out}")
    return 0


def _setup_observability(args: argparse.Namespace):
    """Build the Observer (+ optional HTTP exposition and event log) the
    ``run`` and ``serve`` commands share.  Returns (observer, teardown)."""
    from repro.obs import Observer, start_metrics_server

    obs = Observer()
    detach_native = obs.attach_native_kernels()
    server = None
    if getattr(args, "metrics_port", None) is not None:
        server = start_metrics_server(obs.registry, args.metrics_port)
        print(f"metrics: http://127.0.0.1:{server.server_address[1]}/metrics")
    if getattr(args, "events", None):
        obs.open_event_log(args.events)

    def teardown() -> None:
        detach_native()
        if server is not None:
            server.shutdown()
        obs.close()

    return obs, teardown


def _fastpath_summary(algo, kernels0: dict) -> None:
    """One line saying how many batches ran the columnar fast path vs
    the object pipeline, plus the numpy kernel call totals since
    ``kernels0`` (a :func:`repro.native.stats` snapshot taken when the
    command started)."""
    vs = getattr(algo, "vec_stats", None)
    if vs is None:
        return
    print(
        f"fast path: vector_batches={vs['vector_batches']}   "
        f"object_batches={vs['object_batches']}"
    )
    zero = {"calls": 0, "seconds": 0.0}
    st = {
        name: {k: cell[k] - kernels0.get(name, zero)[k] for k in zero}
        for name, cell in native.stats().items()
    }
    calls = sum(int(c["calls"]) for c in st.values())
    secs = sum(c["seconds"] for c in st.values())
    print(f"native: kernel calls={calls}   kernel seconds={secs:.3f}")
    per = "   ".join(
        f"{name}={int(cell['calls'])}"
        for name, cell in sorted(st.items())
        if cell["calls"]
    )
    if per:
        # Per-kernel call counts: argsort-skeleton kernels plus the
        # columnar structure-edit kernels (edit_*, intern_localize).
        print(f"native kernels: {per}")


def _shard_summary(router) -> None:
    st = router.shard_stats
    print(
        f"shards: {router.k} ({router.transport})   "
        f"local/cross updates: {st['local_updates']}/{st['cross_updates']}   "
        f"handoff re-decisions matched/unmatched: {st['accepts']}/{st['rejects']}"
    )
    breakdown = router.ledger_breakdown()
    per = "  ".join(
        f"s{s}:{work:.0f}" for s, work, _, _ in breakdown["shards"]
    )
    print(
        f"merged ledger work: {breakdown['merged_work']:.0f} "
        f"(router {breakdown['router'][0]:.0f}  {per})"
    )


def _start_query_tier(args: argparse.Namespace, algo, obs, base_epoch: int = 0):
    """Attach the snapshot-isolated read tier (``--query-port``); returns
    (service, server) — both None when the flag is absent."""
    if getattr(args, "query_port", None) is None:
        return None, None
    from repro.query import QueryService, start_query_server

    service = QueryService(algo, base_epoch=base_epoch, observer=obs)
    server = start_query_server(service, args.query_port)
    print(f"queries: http://127.0.0.1:{server.server_address[1]}/epoch")
    return service, server


def _query_summary(service, server) -> None:
    if service is None:
        return
    server.shutdown()
    st = service.stats
    print(
        f"query tier: epoch {st['epoch']}   requests: {st['requests_total']}   "
        f"cache hit ratio: {st['cache_hit_ratio']:.2f}   "
        f"rejected: {st['rejected']}"
    )


def _cmd_run(args: argparse.Namespace) -> int:
    kernels0 = native.stats()
    stream = read_stream(args.stream)
    algo = ALGOS[args.algo](args.rank, args.seed)
    obs, teardown = _setup_observability(args)
    try:
        records = run_stream(algo, stream, check=args.check, observer=obs)
    finally:
        teardown()
    s = summarize(records)
    print(f"algorithm: {args.algo}   batches: {s['batches']}   updates: {s['updates']}")
    print(f"work/update: {s['work_per_update']:.2f}   max batch depth: {s['max_depth']:.1f}")
    _fastpath_summary(algo, kernels0)
    if args.check:
        print("maximality verified after every batch ✓")
    # The profile reads the metrics registry (run_stream publishes each
    # batch's per-tag ledger work), exercising the same path a scraper sees.
    rows = [
        [phase, round(work), f"{frac * 100:.1f}%"]
        for phase, work, frac in work_profile(obs.registry)
    ]
    if rows:
        print("\nwork profile:")
        print(format_table(["phase", "work", "share"], rows))
    return 0


def _cmd_static(args: argparse.Namespace) -> int:
    edges = read_edge_list(args.edges)
    led = Ledger()
    result = parallel_greedy_match(edges, led, rng=np.random.default_rng(args.seed))
    m_prime = sum(e.cardinality for e in edges)
    print(f"edges: {len(edges)}   total cardinality m': {m_prime}")
    print(f"matching size: {len(result.matches)}   rounds: {result.rounds}")
    print(f"work: {led.work:.0f} ({led.work / max(m_prime, 1):.2f} per unit of m')   "
          f"depth: {led.depth:.0f}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    kernels0 = native.stats()
    if args.journal and args.recover:
        print("serve: pass either --journal (fresh run) or --recover, not both")
        return 2
    if not args.journal and not args.recover:
        print("serve: one of --journal or --recover is required")
        return 2

    sharded = args.shards is not None
    if args.recover:
        from repro.sharding import is_sharded_root

        # A sharded root identifies itself by its manifest; --shards is
        # not needed (and is ignored) on recovery.
        sharded = is_sharded_root(args.recover)

    obs, teardown = _setup_observability(args)
    if sharded:
        try:
            return _cmd_serve_sharded(args, obs)
        finally:
            teardown()
    try:
        return _cmd_serve_observed(args, obs, kernels0)
    finally:
        teardown()


def _cmd_serve_sharded(args: argparse.Namespace, obs) -> int:
    from repro.durability.journal import JournalError
    from repro.durability.recovery import RecoveryError
    from repro.sharding import ShardedMatching, recover_sharded

    if args.journal:
        if not args.stream:
            print("serve --journal requires --stream")
            return 2
        stream = read_stream(args.stream)
        router = ShardedMatching(
            shards=args.shards,
            rank=args.rank,
            seed=args.seed,
            backend=args.backend or "array",
            transport=args.shard_transport,
            durability_root=args.journal,
            checkpoint_every=args.checkpoint_every,
            keep=args.keep,
            fsync=not args.no_fsync,
        )
        if obs is not None:
            router.attach_observer(obs)
        try:
            query, qserver = _start_query_tier(args, router, obs)
            records = run_stream(router, stream, check=args.check, observer=obs,
                                 query=query)
            router.checkpoint_now()
            s = summarize(records)
            print(
                f"served {s['batches']} batches ({s['updates']} updates) durably "
                f"into {args.journal} across {router.k} shards"
            )
            print(
                f"matching size: {len(router.matched_ids())}   "
                f"work/update: {s['work_per_update']:.2f}"
            )
            _shard_summary(router)
            _query_summary(query, qserver)
            if args.check:
                print("merged maximality verified after every batch ✓")
        finally:
            router.close()
        return 0

    try:
        res = recover_sharded(args.recover, do_certify=args.certify,
                              fsync=not args.no_fsync)
    except (JournalError, RecoveryError) as exc:
        print(f"serve: cannot recover sharded root {args.recover}: {exc}")
        print("serve: refusing to serve reads from an unproven epoch")
        return 1
    router = res.router
    try:
        print(
            f"recovered {res.applied} batches from sharded root {args.recover} "
            f"({router.k} shards)"
        )
        for info in res.per_shard:
            if info["rebuilt"]:
                print(f"  shard {info['shard']}: rebuilt from router journal "
                      f"({info['rebuild_reason']})")
            elif info["topped_up"]:
                print(f"  shard {info['shard']}: topped up {info['topped_up']} "
                      f"batch(es) from router journal")
        for note in res.anomalies:
            print(f"  anomaly: {note}")
        if args.certify:
            r = res.report
            print(
                f"certified against uninterrupted sharded oracle ✓   "
                f"matching={r['matching_size']}   live={r['live_edges']}"
            )
        query, qserver = _start_query_tier(args, router, obs, base_epoch=res.applied)
        if args.stream:
            if obs is not None:
                router.attach_observer(obs)
            stream = read_stream(args.stream)
            records = run_stream(router, stream, check=args.check, observer=obs,
                                 query=query)
            router.checkpoint_now()
            s = summarize(records)
            print(f"continued with {s['batches']} more batches ({s['updates']} updates)")
            print(f"matching size: {len(router.matched_ids())}")
            _shard_summary(router)
        _query_summary(query, qserver)
    finally:
        router.close()
    return 0


def _cmd_serve_observed(args: argparse.Namespace, obs, kernels0: dict) -> int:
    from repro.durability import DurabilityManager, recover
    from repro.durability.journal import JournalError
    from repro.durability.recovery import RecoveryError

    if args.journal:
        if not args.stream:
            print("serve --journal requires --stream")
            return 2
        stream = read_stream(args.stream)
        dm = DynamicMatching(rank=args.rank, seed=args.seed,
                             backend=args.backend or "array")
        query, qserver = _start_query_tier(args, dm, obs)
        with DurabilityManager.create(
            args.journal,
            dm,
            checkpoint_every=args.checkpoint_every,
            keep=args.keep,
            fsync=not args.no_fsync,
        ) as mgr:
            records = run_stream(dm, stream, check=args.check, durability=mgr,
                                 observer=obs, query=query)
            mgr.checkpoint_now(dm)
        s = summarize(records)
        print(f"served {s['batches']} batches ({s['updates']} updates) durably into {args.journal}")
        print(f"matching size: {len(dm.matched_ids())}   work/update: {s['work_per_update']:.2f}")
        _fastpath_summary(dm, kernels0)
        _query_summary(query, qserver)
        return 0

    try:
        res = recover(args.recover, backend=args.backend or None, do_certify=args.certify)
    except (JournalError, RecoveryError) as exc:
        print(f"serve: cannot recover {args.recover}: {exc}")
        print("serve: refusing to serve reads from an unproven epoch")
        return 1
    src = (
        f"checkpoint @ {res.checkpoint_applied} + {res.replayed} replayed"
        if res.checkpoint_applied is not None
        else f"full replay of {res.replayed} batches"
    )
    print(f"recovered {res.applied} batches from {args.recover} ({src})")
    for note in res.anomalies:
        print(f"  anomaly: {note}")
    if args.certify:
        r = res.report
        print(
            f"certified against uninterrupted oracle ✓   matching={r['matching_size']}   "
            f"work={r['work']:.0f} depth={r['depth']:.0f}"
        )
    query, qserver = _start_query_tier(args, res.dm, obs, base_epoch=res.applied)
    if args.stream:
        dm = res.dm
        stream = read_stream(args.stream)
        with DurabilityManager.resume(
            args.recover,
            applied=res.applied,
            checkpoint_every=args.checkpoint_every,
            keep=args.keep,
            fsync=not args.no_fsync,
        ) as mgr:
            records = run_stream(dm, stream, check=args.check, durability=mgr,
                                 observer=obs, query=query)
            mgr.checkpoint_now(dm)
        s = summarize(records)
        print(f"continued with {s['batches']} more batches ({s['updates']} updates)")
        print(f"matching size: {len(dm.matched_ids())}")
    _query_summary(query, qserver)
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    """One-shot read against a live ``serve --query-port`` endpoint."""
    import json as _json

    from repro.query import EpochNotReady, QueryClient

    client = QueryClient(args.host, args.port, timeout=args.timeout)
    kwargs = {"at_least": args.at_least, "wait": args.wait}
    try:
        if args.v is not None:
            payload = {
                "v": args.v,
                "matched": client.is_matched(args.v, **kwargs),
                "match": client.match_of(args.v, **kwargs),
            }
        elif args.eid is not None:
            payload = {"eid": args.eid, "matched": client.is_matched_edge(args.eid, **kwargs)}
        elif args.levels:
            payload = {"levels": client.level_stats(**kwargs)}
        elif args.size:
            payload = {"matching_size": client.matching_size(**kwargs)}
        else:
            payload = client.epoch()
    except EpochNotReady as exc:
        print(f"query: epoch {exc.requested} not yet durable "
              f"(newest: {exc.newest})")
        return 1
    print(_json.dumps(payload, sort_keys=True))
    return 0


def selftest() -> int:
    """Certified replay of a canned workload on every backend.

    Returns 0 when every batch passes invariants + certificate checks and
    the backends agree bit-for-bit on costs and matching; raises on the
    first violation (non-zero exit through the normal exception path).
    """
    from repro.core.certify import certify
    from repro.core.dynamic_matching import BACKENDS
    from repro.hypergraph.hypergraph import Hypergraph

    def canned_stream():
        edges = erdos_renyi_edges(48, 320, np.random.default_rng(5))
        return insert_then_delete_stream(
            edges, 16, RandomOrderAdversary(np.random.default_rng(6))
        )

    readings = {}
    for backend in sorted(BACKENDS):
        dm = DynamicMatching(rank=2, seed=7, backend=backend)
        mirror = Hypergraph()
        batches = 0
        for batch in canned_stream():
            if batch.kind == "insert":
                dm.insert_edges(list(batch.edges))
                mirror.add_edges(list(batch.edges))
            else:
                dm.delete_edges(list(batch.eids))
                mirror.remove_edges(list(batch.eids))
            batches += 1
            dm.check_invariants()
            assert mirror.is_maximal_matching(dm.matched_ids()), (
                f"[{backend}] matching not maximal after batch {batches}"
            )
            certify(dm).verify(mirror.edges())
        readings[backend] = (
            dm.ledger.work,
            dm.ledger.depth,
            tuple(sorted(dm.structure.matched)),
        )
        print(
            f"selftest[{backend}]: {batches} batches certified   "
            f"work={dm.ledger.work:.0f} depth={dm.ledger.depth:.0f}"
        )
    if len(set(readings.values())) != 1:
        print(f"backend disagreement: {readings}")
        return 1
    print("selftest: all backends agree — OK")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Batch-dynamic maximal matching (Blelloch & Brady, SPAA 2025)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an update-stream file")
    g.add_argument("--kind", choices=["er", "star", "hyper"], default="er")
    g.add_argument("--n", type=int, default=100, help="vertices")
    g.add_argument("--m", type=int, default=500, help="edges")
    g.add_argument("--rank", type=int, default=3, help="hyperedge rank (kind=hyper)")
    g.add_argument("--batch", type=int, default=50)
    g.add_argument("--window", type=int, default=0, help="sliding window size (0 = insert-then-delete)")
    g.add_argument("--adversary", choices=sorted(ADVERSARIES), default="random")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_gen)

    r = sub.add_parser("run", help="replay a stream file through an algorithm")
    r.add_argument("--stream", required=True)
    r.add_argument("--algo", choices=sorted(ALGOS), default="paper")
    r.add_argument("--rank", type=int, default=2)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--check", action="store_true", help="verify maximality per batch")
    _add_obs_args(r)
    r.set_defaults(func=_cmd_run)

    s = sub.add_parser("static", help="static matching on an edge-list file")
    s.add_argument("--edges", required=True)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=_cmd_static)

    v = sub.add_parser("serve", help="durable (write-ahead journaled) replay / recovery")
    v.add_argument("--journal", metavar="DIR", help="start a fresh durable run in DIR")
    v.add_argument("--recover", metavar="DIR", help="recover a previous durable run from DIR")
    v.add_argument("--stream", help="stream file to serve (required with --journal)")
    v.add_argument("--certify", action="store_true",
                   help="certify recovery against an uninterrupted oracle replay")
    v.add_argument("--rank", type=int, default=2)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--backend", choices=["array", "dict"], default=None)
    v.add_argument("--checkpoint-every", type=int, default=16)
    v.add_argument("--keep", type=int, default=2, help="checkpoints to retain")
    v.add_argument("--no-fsync", action="store_true",
                   help="skip fsync per record (faster, weaker crash guarantee)")
    v.add_argument("--check", action="store_true", help="verify maximality per batch")
    v.add_argument("--shards", type=int, default=None, metavar="K",
                   help="serve through K vertex-partitioned shards (each with "
                        "its own journal); recovery autodetects sharded roots")
    v.add_argument("--shard-transport", choices=["inline", "process"], default=None,
                   help="host shards in-process (inline) or one forked process "
                        "each (process); default: inline for K=1, process otherwise")
    v.add_argument("--query-port", type=int, default=None, metavar="PORT",
                   help="serve snapshot-isolated reads on http://127.0.0.1:PORT "
                        "while batches apply (0 picks a free port); epochs "
                        "publish at batch boundaries — see docs/queries.md")
    _add_obs_args(v)
    v.set_defaults(func=_cmd_serve)

    q = sub.add_parser("query", help="read from a live serve --query-port endpoint")
    q.add_argument("--host", default="127.0.0.1")
    q.add_argument("--port", type=int, required=True)
    q.add_argument("--v", type=int, default=None, help="point read: vertex id")
    q.add_argument("--eid", type=int, default=None, help="point read: edge id")
    q.add_argument("--size", action="store_true", help="matching size")
    q.add_argument("--levels", action="store_true", help="matches per level")
    q.add_argument("--at-least", type=int, default=None, metavar="E",
                   help="read-your-writes: require epoch >= E (409 if not durable)")
    q.add_argument("--wait", action="store_true",
                   help="block until --at-least is durable instead of failing")
    q.add_argument("--timeout", type=float, default=10.0)
    q.set_defaults(func=_cmd_query)

    return p


def _add_obs_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve Prometheus metrics on http://127.0.0.1:PORT/metrics "
             "for the duration of the command (0 picks a free port)",
    )
    sub.add_argument(
        "--events", metavar="FILE", default=None,
        help="append batch-lifecycle spans to FILE as JSONL",
    )


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if "--selftest" in argv:
        return selftest()
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
