"""Incremental model maintenance over a resumable store index.

The batch pipeline builds a :class:`~repro.store.index.StoreTraceIndex`
from every stored segment on each synthesis.  The live service instead
keeps one index across segment arrivals: ``StoreTraceIndex.extend``
consumes exactly one more segment with the association state persisted
on the index, which *is* the batch constructor's per-reader step, so the
walk columns, cross-node tables and sched buckets are byte-identical to
a from-scratch build at every commit point.

``extend`` is only valid while arrivals keep the batch concatenation
invariant (run ids ascending, ROS time-ranges disjoint in that order --
``StoreTraceIndex.can_append``).  An out-of-order or time-overlapping
arrival, and any retention-window eviction, falls back to a full
rebuild over the retained readers (the batch constructor itself,
including the k-way merge for overlapping runs).
:class:`LiveSynthesizer` makes that policy decision per arriving
segment and tracks the observability counters.

Extraction resumes the same way.  :meth:`LiveSynthesizer.model` keeps
one :class:`~repro.core.extraction.PidWalk` per PID, tied to the index
object (a rebuild or an eviction swaps the index and drops them all),
and resumes each over the walk rows appended since the last model --
the batch path runs the same walk from an empty state, so each row is
walked once.  A PID re-walks from row 0 only when its folded records
might not be final:

1. a sched row arrived at or before the end of its last folded CB (the
   PID's bucket count up to that horizon grew; Alg. 2 reads only rows
   inside a folded CB's window, and every such window ends by the
   horizon, so no row that could change a folded exec time escapes);
2. its ``pid_map`` name changed;
3. a cross-node match that was not final when walked -- FindCaller with
   no write yet or a cursor clamped to the last write, FindClient with
   no dispatching take yet or an earlier take still awaiting its P14 --
   now resolves to a different row.

The chain-latency :class:`~repro.analysis.latency.LatencyIndex` follows
the same policy, lazily: built from the retained readers on the first
latency request, then extended with each segment that takes the extend
path (the time-ordered invariant makes the batch latency row stream a
concatenation too), and dropped by a rebuild or an eviction.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, List, Optional

from ..analysis.latency import LatencyIndex
from ..analysis.store import _store_rows, latency_index_from_store
from ..core.dag import TimingDag
from ..core.extraction import PidWalk, resume_walks
from ..core.synthesis import synthesize_dag
from ..store.database import TraceStore
from ..store.index import StoreTraceIndex


@dataclass
class ServiceCounters:
    """Observability counters of one live service (``status`` query,
    ``repro perf``'s ``service.ingest`` section)."""

    segments_ingested: int = 0
    events_indexed: int = 0
    rows_evicted: int = 0
    runs_evicted: int = 0
    extends: int = 0
    rebuilds: int = 0
    segments_rejected: int = 0
    queries_served: int = 0
    #: full latency-index builds (the first ``latency`` query, and the
    #: first one after each rebuild or eviction) and in-place extends.
    latency_index_builds: int = 0
    latency_index_extends: int = 0
    #: models synthesized, Alg. 1 walk rows they walked, and PIDs whose
    #: walk had to restart from row 0 (see :meth:`LiveSynthesizer.model`).
    model_builds: int = 0
    model_rows_walked: int = 0
    model_pid_rewalks: int = 0
    extend_s: float = 0.0
    rebuild_s: float = 0.0
    #: estimated wall-clock the incremental extends saved vs rebuilding
    #: the index from scratch at each of those commits (rebuild rate
    #: measured, or extrapolated from the extends' own per-event cost).
    saved_s: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "segments_ingested": self.segments_ingested,
            "events_indexed": self.events_indexed,
            "rows_evicted": self.rows_evicted,
            "runs_evicted": self.runs_evicted,
            "extends": self.extends,
            "rebuilds": self.rebuilds,
            "segments_rejected": self.segments_rejected,
            "queries_served": self.queries_served,
            "latency_index_builds": self.latency_index_builds,
            "latency_index_extends": self.latency_index_extends,
            "model_builds": self.model_builds,
            "model_rows_walked": self.model_rows_walked,
            "model_pid_rewalks": self.model_pid_rewalks,
            "extend_s": round(self.extend_s, 6),
            "rebuild_s": round(self.rebuild_s, 6),
            "saved_s": round(self.saved_s, 6),
        }


class LiveSynthesizer:
    """Incrementally maintained store synthesis.

    Owns a :class:`~repro.store.index.StoreTraceIndex` over the runs of ``store`` consumed
    so far and decides, per arriving run, between the in-place
    ``extend`` (arrival keeps run-id + time order) and a full rebuild
    (out-of-order arrival, time overlap, or retention eviction).
    :meth:`model` then runs the serial extraction + synthesis exactly
    as ``synthesize_from_store(store, jobs=1)`` would over the retained
    runs -- the byte-identity contract the service tests pin at every
    commit point.

    ``retain_window`` keeps only the newest N runs (run-id order) in
    the model for unbounded streams; evicted runs stay on disk but
    leave the index (a rebuild over the retained readers -- prefix
    rows cannot be dropped in place, later rows' association state and
    stream positions depend on them).
    """

    def __init__(
        self,
        store: Any,
        retain_window: Optional[int] = None,
        split_services: bool = True,
        model_sync: bool = True,
        counters: Optional[ServiceCounters] = None,
    ):
        if retain_window is not None and retain_window < 1:
            raise ValueError("retain_window must be positive")
        self.store = (
            store
            if isinstance(store, TraceStore)
            else TraceStore(store, allow_empty=True)
        )
        self.retain_window = retain_window
        self.split_services = split_services
        self.model_sync = model_sync
        self.counters = counters if counters is not None else ServiceCounters()
        #: retained run ids, ascending (the synthesis merge order).
        self._consumed: List[str] = []
        #: every run id ever ingested, including since-evicted ones --
        #: refresh() must not re-ingest an evicted run's on-disk file.
        self._seen: set = set()
        self._events_by_run: Dict[str, int] = {}
        self._index = StoreTraceIndex([])
        #: the chain-latency index over the retained runs; built on the
        #: first latency request, then extended with each appended run.
        self._latency: Optional[LatencyIndex] = None
        #: per-PID Alg. 1 walks over ``_walks_index``; an index swap
        #: (rebuild or eviction) drops them.
        self._walks: Dict[int, PidWalk] = {}
        self._walks_index: Optional[StoreTraceIndex] = None
        self._dag: Optional[TimingDag] = None
        #: measured full-build seconds per event (updated by rebuilds).
        self._build_rate: Optional[float] = None

    @property
    def run_ids(self) -> List[str]:
        """Retained run ids, ascending."""
        return list(self._consumed)

    @property
    def index(self) -> StoreTraceIndex:
        return self._index

    def refresh(self) -> List[str]:
        """Pick up and ingest runs that appeared in the store directory
        since the last look (second writer processes, the drop-dir
        committer); returns the newly ingested run ids."""
        self.store.refresh()
        new = [r for r in self.store.run_ids() if r not in self._seen]
        for run_id in new:
            self.ingest(run_id)
        return new

    def ingest(self, run_id: str) -> None:
        """Fold one stored run into the maintained model."""
        if run_id in self._seen:
            raise ValueError(f"run {run_id!r} already ingested")
        if run_id not in self.store:
            raise ValueError(
                f"run {run_id!r} is not in store {self.store.directory!r}"
            )
        counters = self.counters
        events = self.store.run_info(run_id).events
        in_order = not self._consumed or run_id > self._consumed[-1]
        if in_order:
            self._consumed.append(run_id)
        else:
            insort(self._consumed, run_id)
        self._seen.add(run_id)
        self._events_by_run[run_id] = events

        evicted: List[str] = []
        if (
            self.retain_window is not None
            and len(self._consumed) > self.retain_window
        ):
            evicted = self._consumed[: len(self._consumed) - self.retain_window]
            self._consumed = self._consumed[len(evicted):]
            for old in evicted:
                counters.rows_evicted += self._events_by_run.pop(old)
            counters.runs_evicted += len(evicted)

        reader = self.store.open(run_id) if run_id in self._consumed else None
        if (
            reader is not None
            and not evicted
            and in_order
            and self._index.can_append(reader)
        ):
            started = perf_counter()
            self._index.extend(reader)
            elapsed = perf_counter() - started
            if self._latency is not None:
                # The same time-ordered append keeps the batch latency
                # stream a concatenation, so the new rows continue it.
                self._latency.extend(
                    _store_rows([reader]), reader.wakeup_ts_pid_rows()
                )
                counters.latency_index_extends += 1
            counters.extends += 1
            counters.extend_s += elapsed
            total = sum(self._events_by_run.values())
            rate = self._build_rate
            if rate is None:
                # No rebuild measured yet: extrapolate from the extends'
                # own per-event cost (a from-scratch build consumes the
                # same columns through the same loops).
                processed = counters.events_indexed + events
                rate = counters.extend_s / processed if processed else 0.0
            counters.saved_s += max(0.0, rate * total - elapsed)
        else:
            self._rebuild()
        counters.segments_ingested += 1
        counters.events_indexed += events
        self._dag = None

    def _rebuild(self) -> None:
        counters = self.counters
        self._latency = None
        started = perf_counter()
        readers = [self.store.open(run_id) for run_id in self._consumed]
        self._index = StoreTraceIndex(readers)
        elapsed = perf_counter() - started
        counters.rebuilds += 1
        counters.rebuild_s += elapsed
        total = sum(self._events_by_run.values())
        if total:
            self._build_rate = elapsed / total

    def latency_index(self) -> LatencyIndex:
        """The latency index over the retained runs -- equal to
        ``latency_index_from_store(store, run_ids=run_ids)``.  Built on
        first use and kept up to date by in-order ingests; a rebuild or
        an eviction drops it until the next request."""
        if self._latency is None:
            self._latency = latency_index_from_store(
                self.store, run_ids=self._consumed
            )
            self.counters.latency_index_builds += 1
        return self._latency

    def model(self) -> TimingDag:
        """The timing DAG over the retained runs -- byte-identical to
        ``synthesize_from_store(store_of_retained_runs, jobs=1)``.
        Cached until the next ingest.  Each PID's Alg. 1 walk resumes
        over the rows appended since the last model, unless
        :meth:`~repro.core.extraction.PidWalk.is_current` finds it must
        restart from row 0."""
        if self._dag is None:
            index = self._index
            if self._walks_index is not index:
                self._walks = {}
                self._walks_index = index
            pids = sorted(index.pid_map)
            rows, rewalks = resume_walks(index, pids, self._walks)
            counters = self.counters
            counters.model_builds += 1
            counters.model_rows_walked += rows
            counters.model_pid_rewalks += rewalks
            self._dag = synthesize_dag(
                [self._walks[pid].cblist for pid in pids],
                split_services=self.split_services,
                model_sync=self.model_sync,
            )
        return self._dag
