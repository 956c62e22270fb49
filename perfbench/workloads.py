"""The benchmark's three workloads, driven through the public ``repro`` API.

Every workload generates all of its input in one thread from the run's
seed, before anything is timed; the program receives only the generated
tuples and queries.  A workload repeats a fixed unit of work, a *round*,
on a freshly built deployment, a fixed number of times, so every commit
takes its per-operation figures over the same number of repetitions of
the same work (ingest cost grows with tree size, so the stream is fixed).
A workload may draw several inputs from the seed and cycle through them,
one per round (``Workload.inputs``).

Each round has three phases: ``setup`` (build the deployment several
times, keeping the last; ``scan_io`` also preloads each build), ``run``
(the timed operations, each checked against the oracle, then kill ->
supervised recovery -> full-content check) and ``teardown`` (close; the
first round of a run first flushes the rest and measures space, which is
the same on every round of the same input).

No workload sets a knob beyond the stated geometry; in particular none
sets ``ranged_reads``, ``flush_mode`` or ``rebalance_migration``.
"""

from __future__ import annotations

import itertools
import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro import Waterwheel, WaterwheelConfig, small_config
from repro.workloads import (
    TEMPORAL_MODES,
    QueryGenerator,
    TDriveGenerator,
    random_key_range,
    uniform_records,
)

from perfbench.oracle import Oracle, default_ident
from perfbench.stats import fastest_of, median, percentile, tail_percentile

#: The paper's query mix: key selectivity crossed with temporal window.
QUERY_CLASSES = [(s, m) for s in (0.01, 0.05, 0.1) for m in TEMPORAL_MODES]


@dataclass
class RoundResult:
    """What one round measured."""

    setup_s: List[float] = field(default_factory=list)
    tuples: int = 0
    #: Per-operation latencies in input order (None: the operation failed).
    batch_lat: List[float] = field(default_factory=list)
    query_lat: List[Optional[float]] = field(default_factory=list)
    #: Kill-to-recovered seconds, one per victim.
    recover_s: List[float] = field(default_factory=list)
    space_amp: float = 0.0
    run_s: float = 0.0
    #: Which of the workload's inputs the round ran.
    input_no: int = 0
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: Workload-specific figures (generator lateness, queue waits).
    extra: dict = field(default_factory=dict)

    def fail(self, what: str, n: int = 1) -> None:
        """Count ``n`` failed operations, keeping a few descriptions."""
        self.failed += n
        if len(self.failures) < 20:
            self.failures.append(what)

    def add_build(self, load: "RoundResult", first: bool) -> None:
        """Take in one build's preload: each batch keeps its fastest
        latency over the round's builds, as set-up time does."""
        self.batch_lat = (
            load.batch_lat if first
            else [min(a, b) for a, b in zip(self.batch_lat, load.batch_lat)]
        )
        self.tuples = load.tuples
        self.attempted += load.attempted
        self.failed += load.failed
        self.failures.extend(load.failures[: 20 - len(self.failures)])


def _label(tracer, request: str) -> None:
    """Name the request the next traced calls on this thread belong to."""
    if tracer is not None:
        tracer.set_request(request)


def _seeds(seed: int, n: int) -> List[int]:
    """``n`` generator seeds derived from the run's seed."""
    rng = random.Random(seed)
    return [rng.randrange(1 << 30) for _ in range(n)]


def _space_amp(ww: Waterwheel, user_bytes: int) -> float:
    """DFS bytes held, every replica counted, per user byte inserted."""
    held = 0
    for chunk_id in ww.dfs.chunk_ids():
        loc = ww.dfs.location(chunk_id)
        held += loc.size * len(loc.replicas)
    return held / user_bytes


class Workload:
    """A fixed round of work, repeated on fresh deployments."""

    name = ""
    why = ""
    #: Deployments built per round (the round keeps the last), so set-up
    #: time -- and scan_io's preload -- get more repetitions.
    setup_builds = 3
    #: Indexing servers killed and recovered, one after another, at the
    #: end of every round; each kill is one recovery operation.
    victims = (0,)
    #: insert_batch calls and queries of a run: one round's, summed over
    #: the workload's inputs.
    batch_samples = 0
    query_samples = 0
    #: Rounds a run makes at the benchmark's run_seconds.  The count is
    #: fixed, not timed, so a faster commit takes its per-operation
    #: minimum over the same number of repetitions as a slower one.
    rounds = 3
    #: Open-loop workloads report query latency per round (queueing
    #: collisions differ from round to round) and take the least disturbed
    #: round; closed-loop ones take each query's fastest repetition.  The
    #: open-loop workload is the threaded one, and its recoveries are
    #: summarised per round the same way.
    open_loop = False
    #: Independent inputs drawn from the seed; round ``i`` runs input
    #: ``i % inputs``.  An operation of one input is repeated by that
    #: input's rounds only.
    inputs = 1

    def __init__(self, seed: int):
        self.oracle_ident: Callable = default_ident

    # --- shared steps -------------------------------------------------------

    def build(self) -> Waterwheel:
        """One deployment of this workload's geometry."""
        raise NotImplementedError

    def preload(self, ww: Waterwheel, load: RoundResult) -> None:
        """Work timed into set-up on every build (none by default)."""

    def _setup(self, res: RoundResult) -> Waterwheel:
        ww = None
        for build in range(self.setup_builds):
            if ww is not None:
                ww.close()
            load = RoundResult()
            started = time.perf_counter()
            ww = self.build()
            self.preload(ww, load)
            res.setup_s.append(time.perf_counter() - started)
            res.add_build(load, first=build == 0)
        return ww

    # The per-operation steps below are plain methods so the traced run
    # can wrap them as the harness layer's spans (see spans.HOOKS).

    def _insert(self, ww: Waterwheel, batch, oracle: Oracle, res: RoundResult) -> None:
        started = time.perf_counter()
        try:
            ww.insert_batch(batch)
        except Exception as exc:  # noqa: BLE001 - a failed operation, counted
            res.fail(f"insert_batch: {exc!r}")
        else:
            oracle.acknowledge(batch)
        res.batch_lat.append(time.perf_counter() - started)
        res.attempted += 1

    def _check(self, result, spec, oracle: Oracle, res: RoundResult, what: str) -> None:
        res.attempted += 1
        if result.partial or result.degraded:
            res.fail(f"{what}: partial result {spec}")
            return
        mismatch = oracle.check(result.tuples, *spec)
        if mismatch:
            res.fail(f"{what}: {mismatch.errors} wrong tuples {spec} {mismatch.examples}")

    def _query(self, ww: Waterwheel, spec, oracle: Oracle, res: RoundResult) -> None:
        started = time.perf_counter()
        try:
            result = ww.query(*spec)
        except Exception as exc:  # noqa: BLE001 - a failed operation, counted
            res.query_lat.append(None)
            res.attempted += 1
            res.fail(f"query {spec}: {exc!r}")
            return
        res.query_lat.append(time.perf_counter() - started)
        self._check(result, spec, oracle, res, "query")

    def _recover(self, ww: Waterwheel, supervisor, victim: int, res: RoundResult) -> None:
        """Kill indexing server ``victim`` and let the supervisor detect
        it and replay its log partition."""
        started = time.perf_counter()
        ww.kill_indexing_server(victim)
        reports = supervisor.poll_until_quiet()
        res.recover_s.append(time.perf_counter() - started)
        repaired = any(
            r.component == "indexing" and r.index == victim
            for report in reports for r in report.repairs
        )
        res.attempted += 1
        if not repaired or not ww.indexing_servers[victim].alive:
            res.fail(f"indexing server {victim} was not recovered")

    def _recover_all(self, ww: Waterwheel, res: RoundResult, tracer) -> None:
        _label(tracer, "recovery")
        supervisor = ww.supervise()
        for victim in self.victims:
            self._recover(ww, supervisor, victim, res)

    def _content_check(self, ww: Waterwheel, oracle: Oracle, key_lo, key_hi, res) -> None:
        """Full-range contents after recovery: every acknowledged tuple
        exactly once.  Each tuple checked is one attempted operation."""
        t_first, t_last = oracle.time_span()
        spec = (key_lo, key_hi - 1, t_first - 1.0, t_last + 1.0)
        res.attempted += len(oracle)
        try:
            result = ww.query(*spec)
        except Exception as exc:  # noqa: BLE001 - a failed operation, counted
            res.fail(f"content check: {exc!r}", len(oracle))
            return
        mismatch = oracle.check(result.tuples, *spec)
        if mismatch:
            res.fail(
                f"after recovery: {mismatch.lost} lost, {mismatch.duplicated} "
                f"duplicated, {mismatch.spurious} spurious {mismatch.examples}",
                mismatch.errors,
            )

    def round(self, tracer=None, measure_space: bool = False, input_no: int = 0) -> RoundResult:
        """Run one round on input ``input_no``; ``tracer`` (when given) gets
        phase marks and end-of-round gauges.  ``measure_space`` flushes
        everything at the end and sets ``space_amp``."""
        res = RoundResult(input_no=input_no)
        if tracer is not None:
            tracer.phase = "setup"
        ww = self._setup(res)
        try:
            if tracer is not None:
                tracer.phase = "run"
                t0 = tracer.now()
            started = time.perf_counter()
            self.run(ww, res, tracer, input_no)
            res.run_s = time.perf_counter() - started
            if tracer is not None:
                tracer.mark_phase("run", t0, tracer.now())
                self._gauges(ww, res, tracer)
                tracer.phase = "teardown"
            if measure_space:
                ww.flush_all()
                res.space_amp = _space_amp(ww, self.user_bytes)
        finally:
            ww.close()
        return res

    def run(self, ww: Waterwheel, res: RoundResult, tracer, input_no: int) -> None:
        raise NotImplementedError

    def _gauges(self, ww: Waterwheel, res: RoundResult, tracer) -> None:
        tracer.gauge("dfs.bytes_served", ww.dfs.total_bytes_served)
        tracer.gauge("balancer.installs", ww.balancer.rebalance_count)
        tracer.gauge(
            "query_server.prefetch_hits",
            sum(q.prefetch_hits_total for q in ww.query_servers),
        )
        skews = [
            tree.skewness()
            for server in ww.indexing_servers
            for tree in server.in_memory_trees()
        ]
        tracer.gauge("btree.skewness_end", max(skews) if skews else 0.0)
        for name, value in res.extra.items():
            tracer.gauge(name, value)


@dataclass
class TaxiStream:
    """One of ingest_16m's generated inputs."""

    batches: list
    queries: list
    key_lo: int
    key_hi: int
    user_bytes: int


class Ingest16m(Workload):
    """Skewed taxi stream at the paper's chunk geometry, then recovery."""

    name = "ingest_16m"
    why = (
        "T-Drive z-keys streamed closed-loop at 16 MB chunk geometry: template "
        "B+ tree, skew detector, balancer and log replay do the work, with no "
        "flush and no chunk read"
    )
    #: A stream makes 13-14 template rebuilds (one per server at every
    #: 4096 tuples it holds), of trees from ~4 K to ~29 K tuples.  Over
    #: the 3 x 462 batches of a run the p99 batch tail is the 15th slowest
    #: batch, among the rebuilds of ~20 K-tuple trees, where the three
    #: streams' stalls lie close together.  With batches of 55-60 it fell
    #: on the step between two small rebuild sizes, so it moved by a third
    #: with the seed.
    N_TUPLES = 60_000
    BATCH = 130
    N_TAXIS = 10_357  # the paper's T-Drive fleet
    #: Seconds between two reports of one taxi (T-Drive's mean interval).
    REPORT_INTERVAL = 177.0
    N_QUERIES = 40
    #: Each round runs its queries this many times and keeps each query's
    #: faster latency, so a query's fastest is taken over six repetitions
    #: where a round costs a tenth of a second more.
    QUERY_PASSES = 2
    #: Key selectivity of the post-recovery queries (one key in a thousand
    #: of the stream's span), crossed with the paper's four windows.
    SELECTIVITY = 0.001
    #: Nothing is flushed at this geometry, so each recovery replays the
    #: victim's whole log partition; the queries then run on the recovered
    #: deployment.  Both servers are recovered, one after the other, so a
    #: round's median recovery is the mean of its two partitions' replays.
    victims = (0, 1)
    setup_builds = 5
    #: Three streams of the same length, each streamed in three rounds,
    #: so neither the batch tail nor recover_s (replay makes 6 or 7
    #: rebuilds) hangs on the rebuild pattern of the one stream a seed
    #: draws.
    inputs = 3
    rounds = 9
    batch_samples = inputs * -(-N_TUPLES // BATCH)
    query_samples = inputs * N_QUERIES

    def __init__(self, seed: int):
        super().__init__(seed)
        seeds = _seeds(seed, 2 * self.inputs)
        # Paper defaults (16 MB chunks, 512-tuple leaves, a skew check every
        # 4096 inserts) on one node with two indexing servers.
        self.config = WaterwheelConfig(n_nodes=1, indexing_per_node=2)
        self.oracle_ident = lambda t: (t.key, t.ts, t.payload.taxi_id)
        self.streams = [
            self._stream(seeds[2 * i], seeds[2 * i + 1]) for i in range(self.inputs)
        ]
        # Space is measured on the first round, which runs stream 0.
        self.user_bytes = self.streams[0].user_bytes

    def _stream(self, data_seed: int, query_seed: int) -> TaxiStream:
        taxis = TDriveGenerator(
            n_taxis=self.N_TAXIS, report_interval=self.REPORT_INTERVAL, seed=data_seed
        )
        data = taxis.records(self.N_TUPLES)
        keys = [t.key for t in data]
        key_lo, key_hi = min(keys), max(keys) + 1
        # Queries run on the recovered deployment, over the stream's own
        # key span and the paper's four windows ending at the stream's end.
        qgen = QueryGenerator(key_lo, key_hi, seed=query_seed)
        modes = itertools.cycle(TEMPORAL_MODES)
        queries = []
        for _ in range(self.N_QUERIES):
            q = qgen.batch(
                1, self.SELECTIVITY, next(modes), now=data[-1].ts, start=data[0].ts
            )[0]
            queries.append((q.key_lo, q.key_hi, q.t_lo, q.t_hi))
        return TaxiStream(
            batches=[data[i : i + self.BATCH] for i in range(0, len(data), self.BATCH)],
            queries=queries,
            key_lo=key_lo,
            key_hi=key_hi,
            user_bytes=sum(t.size for t in data),
        )

    def build(self) -> Waterwheel:
        return Waterwheel(self.config, transport="inline")

    def run(self, ww: Waterwheel, res: RoundResult, tracer, input_no: int) -> None:
        stream = self.streams[input_no]
        oracle = Oracle(self.oracle_ident)
        for i, batch in enumerate(stream.batches):
            _label(tracer, f"batch:{i}")
            self._insert(ww, batch, oracle, res)
            res.tuples += len(batch)
        self._recover_all(ww, res, tracer)
        passes = []
        for _ in range(self.QUERY_PASSES):
            res.query_lat = []
            for i, spec in enumerate(stream.queries):
                _label(tracer, f"query:{i}")
                self._query(ww, spec, oracle, res)
            passes.append(res.query_lat)
        res.query_lat = fastest_of(passes)
        _label(tracer, "content_check")
        self._content_check(ww, oracle, stream.key_lo, stream.key_hi, res)


class MixedSmall(Workload):
    """Writes beside the paper's query mix at the test geometry."""

    name = "mixed_small"
    why = (
        "small_config inline, uniform keys: fixed insert_batch calls alternate "
        "with the paper's query mix, so flushes, fresh scans and warm leaf "
        "decode share the CPU"
    )
    N_TUPLES = 20_000
    #: Small batches keep one server's flush apart from another's, so the
    #: batch tail (p99) is a single-flush batch rather than the edge
    #: between batches holding one flush and batches holding two.
    BATCH = 16
    #: One query after every this many insert_batch calls.
    QUERY_EVERY = 4
    #: Event-time tuples per second: an in-memory tree spans up to ~6 min
    #: of stream, so recent windows hit it and historic ones hit chunks.
    RATE = 2.0
    #: Each flushed server is recovered twice (a recovery takes a third of
    #: a millisecond).
    victims = (0, 1, 2) * 2
    rounds = 36
    batch_samples = -(-N_TUPLES // BATCH)
    query_samples = -(-batch_samples // QUERY_EVERY)

    def __init__(self, seed: int):
        super().__init__(seed)
        data_seed, query_seed = _seeds(seed, 2)
        self.config = small_config()
        cfg = self.config
        data = uniform_records(
            self.N_TUPLES, cfg.key_lo, cfg.key_hi,
            records_per_second=self.RATE, seed=data_seed, size=cfg.tuple_size,
        )
        self.user_bytes = sum(t.size for t in data)
        self.key_lo, self.key_hi = cfg.key_lo, cfg.key_hi
        qgen = QueryGenerator(cfg.key_lo, cfg.key_hi, seed=query_seed)
        classes = itertools.cycle(QUERY_CLASSES)
        self.steps = []
        for n, i in enumerate(range(0, len(data), self.BATCH)):
            batch = data[i : i + self.BATCH]
            spec = None
            if n % self.QUERY_EVERY == self.QUERY_EVERY - 1:
                sel, mode = next(classes)
                q = qgen.batch(1, sel, mode, now=batch[-1].ts, start=data[0].ts)[0]
                spec = (q.key_lo, q.key_hi, q.t_lo, q.t_hi)
            self.steps.append((batch, spec))

    def build(self) -> Waterwheel:
        return Waterwheel(self.config, transport="inline")

    def run(self, ww: Waterwheel, res: RoundResult, tracer, input_no: int) -> None:
        oracle = Oracle(self.oracle_ident)
        for i, (batch, spec) in enumerate(self.steps):
            _label(tracer, f"batch:{i}")
            self._insert(ww, batch, oracle, res)
            res.tuples += len(batch)
            if spec is not None:
                _label(tracer, f"query:{i}")
                self._query(ww, spec, oracle, res)
        # Recovery starts from flushed servers, so every round and seed
        # times the same work: detection plus the storage repair pass.
        # (Log replay is timed on ingest_16m and scan_io.)
        ww.flush_all()
        self._recover_all(ww, res, tracer)
        _label(tracer, "content_check")
        self._content_check(ww, oracle, self.key_lo, self.key_hi, res)


def send_open_loop(specs, qps: float, submit, clock=time.monotonic, sleep=time.sleep):
    """Send ``submit(i, spec)`` for each spec on a fixed schedule of
    ``qps`` per second, whatever the replies do.

    Returns ``([(due, spec, ticket)], lateness)``: ``due`` is when the
    query should have been sent (on ``clock``), ``lateness`` how far behind
    schedule the generator actually sent each one.
    """
    interval = 1.0 / qps
    base = clock() + interval
    sent, lateness = [], []
    for i, spec in enumerate(specs):
        due = base + i * interval
        wait = due - clock()
        if wait > 0:
            sleep(wait)
        lateness.append(clock() - due)
        sent.append((due, spec, submit(i, spec)))
    return sent, lateness


def latency_from_due(due: float, ticket) -> float:
    """A ticket's completion time minus when its query was due, so a
    stalled generator's delay counts against the query."""
    return ticket.submitted_at + ticket.latency - due


def query_workers() -> int:
    """Scheduler workers: one per CPU this process may run on (``nproc``)."""
    return len(os.sched_getaffinity(0))


class ScanIo(Workload):
    """Open-loop historical scans against a cold-ish, preloaded store."""

    name = "scan_io"
    why = (
        "read-only key-selective, time-deep scans sent open-loop on the "
        "threaded transport with a real DFS access floor and a cache smaller "
        "than the chunk set"
    )
    N_TUPLES = 20_000
    #: As in mixed_small: small enough that two servers' flushes rarely
    #: share a batch, so the batch tail is a single-flush batch.
    LOAD_BATCH = 16
    #: The stream's last tuples are held back from the preload and
    #: inserted after the scans, unflushed (about 200 per server, under
    #: the 256 a chunk holds), so each recovery replays a log suffix.
    HOLD_BACK = 600
    RATE = 2.0
    #: 15 per second is a quarter of the rate at which the store saturates
    #: on a 2-vCPU VM: queueing stays mild, so a slower spell of the host
    #: does not multiply the tail as it does near saturation.
    N_QUERIES = 75
    QPS = 15.0
    SELECTIVITY = 0.01
    #: Time depth of a scan as a share of the stream's span.
    DEPTH = (0.25, 1.0)
    CACHE_BYTES = 32 << 10
    READ_SLEEP = 0.002
    #: Each server is recovered four times, each replaying the same suffix:
    #: a recovery takes milliseconds, mostly thread hand-offs, so the
    #: median within a round needs a dozen of them.
    victims = (0, 1, 2) * 4
    setup_builds = 2
    rounds = 5
    open_loop = True
    batch_samples = -(-(N_TUPLES - HOLD_BACK) // LOAD_BATCH)
    query_samples = N_QUERIES

    def __init__(self, seed: int):
        super().__init__(seed)
        data_seed, query_seed = _seeds(seed, 2)
        self.config = small_config(
            cache_bytes=self.CACHE_BYTES, dfs_read_sleep=self.READ_SLEEP
        )
        cfg = self.config
        data = uniform_records(
            self.N_TUPLES, cfg.key_lo, cfg.key_hi,
            records_per_second=self.RATE, seed=data_seed, size=cfg.tuple_size,
        )
        self.load = data[: -self.HOLD_BACK]
        self.tail = data[-self.HOLD_BACK :]
        self.user_bytes = sum(t.size for t in data)
        self.key_lo, self.key_hi = cfg.key_lo, cfg.key_hi
        rng = random.Random(query_seed)
        t_first, t_last = self.load[0].ts, self.load[-1].ts
        span = t_last - t_first
        self.queries = []
        for _ in range(self.N_QUERIES):
            k_lo, k_hi = random_key_range(rng, cfg.key_lo, cfg.key_hi, self.SELECTIVITY)
            depth = rng.uniform(*self.DEPTH) * span
            t_lo = rng.uniform(t_first, t_last - depth)
            self.queries.append((k_lo, k_hi, t_lo, t_lo + depth))

    def build(self) -> Waterwheel:
        return Waterwheel(self.config, transport="threaded")

    def preload(self, ww: Waterwheel, load: RoundResult) -> None:
        # The preload's insert_batch calls are the workload's ingest
        # figures.  The oracle is rebuilt with every build.
        self._oracle = Oracle(self.oracle_ident)
        for i in range(0, len(self.load), self.LOAD_BATCH):
            batch = self.load[i : i + self.LOAD_BATCH]
            self._insert(ww, batch, self._oracle, load)
            load.tuples += len(batch)
        ww.flush_all()
        ww.scheduler(max_concurrency=query_workers())

    def run(self, ww: Waterwheel, res: RoundResult, tracer, input_no: int) -> None:
        oracle = self._oracle

        def submit(i, spec):
            _label(tracer, f"submit:{i}")
            return ww.submit(*spec)

        sent, lateness = send_open_loop(self.queries, self.QPS, submit)
        waits = []
        for due, spec, ticket in sent:
            try:
                result = ticket.result(timeout=60.0)
            except Exception as exc:  # noqa: BLE001 - shed, failed or timed out
                res.query_lat.append(None)
                res.attempted += 1
                res.fail(f"query {spec}: {exc!r}")
                continue
            res.query_lat.append(latency_from_due(due, ticket))
            waits.append(ticket.queue_wait)
            self._check(result, spec, oracle, res, "query")
        tail = tail_percentile(self.N_QUERIES)
        res.extra["loadgen.late_p50_ms"] = median(lateness) * 1e3
        res.extra["loadgen.late_tail_ms"] = percentile(lateness, tail) * 1e3
        if waits:
            res.extra["scheduler.queue_wait_p50_ms"] = median(waits) * 1e3
            res.extra["scheduler.queue_wait_tail_ms"] = percentile(waits, tail) * 1e3
        # Untimed: the held-back tail, which the recoveries then replay.
        _label(tracer, "tail")
        tail_res = RoundResult()
        for i in range(0, len(self.tail), self.LOAD_BATCH):
            self._insert(ww, self.tail[i : i + self.LOAD_BATCH], oracle, tail_res)
        res.attempted += tail_res.attempted
        res.failed += tail_res.failed
        res.failures.extend(tail_res.failures)
        self._recover_all(ww, res, tracer)
        _label(tracer, "content_check")
        self._content_check(ww, oracle, self.key_lo, self.key_hi, res)


WORKLOADS = {w.name: w for w in (Ingest16m, MixedSmall, ScanIo)}



def tails(workload: type) -> dict:
    """Per-round sample counts and the tail percentile each allows."""
    return {
        "batch_samples": workload.batch_samples,
        "batch_tail": tail_percentile(workload.batch_samples),
        "query_samples": workload.query_samples,
        "query_tail": tail_percentile(workload.query_samples),
    }
