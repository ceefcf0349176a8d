"""The benchmark's workloads: seeded inputs, ground truth and one whole job.

A job is what a user of the reproduction runs end to end: build the fabric,
install routes, install the aggregation job (or the baseline transport),
send every mapper's pairs from its host, run the simulation and collect the
reducer's result. Each call into the program sits in its own span. Inputs
and ground truth are made here from the seed, before and outside any job.

Workloads (defaults at seed 2017):

* ``rack_wordcount`` -- 16 mappers and 1 reducer behind one ToR switch,
  12,000 pairs each over 8,000 words, reliability off, no loss. The only
  shape where the numpy register kernel and burst delivery engage; host
  packetization dominates, routing and transport do almost nothing.
* ``spine1024_reliable`` -- 1024 mappers on a leaf-spine fabric (16 hosts per
  leaf, 4 spines), 400 pairs each over 4,000 words, 0.1% loss on host
  uplinks, ``exact`` reliability. Route install and the sequenced per-hop
  ACK path dominate. Its jobs are long (5 to 8 s on a 2-vCPU Xeon virtual
  machine), so a run holds only a handful and its host times spread by 0.15
  to 0.27 of their median across runs; it runs on request and in ``all``
  but is left out of ``BENCHMARK.json``, whose other workloads cover its
  layers (route install, reliability) at 256 mappers.
* ``spine256_udp_shuffle`` -- the same fabric and corpus at 256 mappers with
  no trees: 10-pair datagrams over ``ReliableUdpTransport`` (2 ms RTO floor)
  and the reducer host aggregates. The paper's no-aggregation baseline;
  ``core.aggregation`` and ``dataplane`` do nothing here.
* ``spine256_spine_crash`` -- ``spine1024_reliable``'s settings at 256
  mappers with ``retain_for_replay``. The tree's first spine crashes at 35%
  of the fault-free completion time (measured by an untimed pilot); the
  default ``FailoverManager`` re-plans and replays, bit-exact. The only
  workload where ``netsim.faults`` and ``core.failover`` run.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

from repro.core.config import DaietConfig
from repro.core.daiet import DaietSystem
from repro.core.failover import FailoverManager
from repro.dataplane import interning
from repro.netsim.devices import Host
from repro.netsim.faults import FaultPlan, install_faults
from repro.netsim.simulator import NetworkSimulator, SimulatorConfig
from repro.netsim.topology import Topology, leaf_spine, single_rack
from repro.transport.packets import MessagePayload
from repro.transport.udp import ReliableUdpTransport
from repro.transport.window import TransportTuning

from tracing import SpanRecorder

#: The phase of a job each top-level span belongs to, by per-layer metric.
#: Some phases are served by different layers on different workloads (the UDP
#: baseline installs a transport where the others install a tree), so every
#: phase is measured on every workload; the span file keeps the layer names.
PHASES = {
    "netsim.topology.build": "netsim.topology.build_s",
    "netsim.simulator.init": "netsim.simulator.init_s",
    "netsim.routing.install": "netsim.routing.install_s",
    "core.controller.install_job": "job.install_s",
    "transport.udp.init": "job.install_s",
    "netsim.faults.install": "job.install_s",
    "core.failover.start": "job.install_s",
    "core.daiet.send_pairs": "job.send_s",
    "transport.udp.send_reliable": "job.send_s",
    "netsim.simulator.run": "netsim.simulator.run_s",
    "core.daiet.collect": "job.collect_s",
    "transport.udp.collect": "job.collect_s",
}

#: Phases that make up a job's set-up: everything before the first host send.
SETUP_PHASES = (
    "netsim.topology.build_s",
    "netsim.simulator.init_s",
    "netsim.routing.install_s",
    "job.install_s",
)

#: Leaf-spine dimensioning and protocol settings of the ``spine*`` workloads
#: (the repository's cluster-scale sweep defaults).
HOSTS_PER_LEAF = 16
SPINES = 4
UPLINK_LOSS = 0.001
BASELINE_PORT = 9090
BASELINE_PAIR_BYTES = 20
BASELINE_RTO_FLOOR = 2e-3
CRASH_FRACTION = 0.35


@dataclass(frozen=True)
class Corpus:
    """Wordcount-shaped map output (one partition per mapper) and its truth."""

    partitions: list[list[tuple[str, int]]]
    truth: dict[str, int]
    pairs: int


def make_corpus(seed: int, mappers: int, pairs_per_mapper: int, vocabulary: int) -> Corpus:
    """Seeded corpus; the truth is summed here, not by the program."""
    rng = random.Random(seed)
    words = [f"word{i:05d}" for i in range(vocabulary)]
    partitions = [
        [(rng.choice(words), 1) for _ in range(pairs_per_mapper)]
        for _ in range(mappers)
    ]
    truth: Counter[str] = Counter()
    for partition in partitions:
        for key, value in partition:
            truth[key] += value
    return Corpus(partitions, dict(truth), mappers * pairs_per_mapper)


def result_digest(result: dict) -> str:
    """Order-independent digest of a reducer result."""
    blob = json.dumps(sorted(result.items()), separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class JobOutcome:
    """What one job produced: its result, and how to read its counters."""

    result: dict
    complete: bool
    #: Reads the program's counters once the job's span has closed, so that
    #: reading them is not timed as part of the job. Returns the simulated
    #: outputs (deterministic for a given seed and program) and the
    #: per-layer counts and ratios.
    read: Callable[[], tuple[dict, dict]]


def _leaf_spine(hosts: int, loss_rate: float) -> Topology:
    topo = leaf_spine(
        num_leaves=-(-hosts // HOSTS_PER_LEAF),
        num_spines=SPINES,
        hosts_per_leaf=HOSTS_PER_LEAF,
        host_prefix="h",
    )
    for link in topo.links:
        if isinstance(topo.get(link.a.device), Host) or isinstance(
            topo.get(link.b.device), Host
        ):
            link.loss_rate = loss_rate
    return topo


def _scale_config(retain_for_replay: bool = False) -> DaietConfig:
    return DaietConfig(
        register_slots=16 * 1024,
        pairs_per_packet=10,
        reliability=True,
        retransmit_timeout=1e-4,
        ack_window=8,
        max_retransmits=30,
        retain_for_replay=retain_for_replay,
    )


def _simulated(sim: NetworkSimulator, reducer: str, events: int, retransmissions: int) -> dict:
    stats = sim.stats
    return {
        "logical_events": events,
        "link_packets": stats.total_link_packets(),
        "link_bytes": stats.total_link_bytes(),
        "reducer_packets": sim.host(reducer).counters.packets_received,
        "sim_job_us": sim.now * 1e6,
        "retransmissions": retransmissions,
    }


def _netsim_counts(
    sim: NetworkSimulator, reducer: str, rules: int, pending: int, events: int, run_s: float
) -> dict:
    stats = sim.stats
    # The scheduler counts the events it ran; run() adds the packets carried
    # by burst events on top, so the ratio shows how well bursts batch.
    dispatches = sim.scheduler.events_executed
    return {
        "netsim.routing.forwarding_rules": rules,
        "netsim.events.pending_after_send": pending,
        "netsim.events.logical_events": events,
        "netsim.events.dispatches": dispatches,
        "netsim.events.dispatch_ratio": events / dispatches if dispatches else 0.0,
        "netsim.simulator.host_us_per_event": run_s * 1e6 / events if events else 0.0,
        "netsim.simulator.job_sim_us": sim.now * 1e6,
        "netsim.stats.link_packets": stats.total_link_packets(),
        "netsim.stats.losses": stats.total_losses(),
        "netsim.stats.queue_drops": stats.total_queue_drops(),
        "netsim.stats.fault_drops": stats.total_fault_drops(),
        "netsim.host.reducer_packets": sim.host(reducer).counters.packets_received,
        "dataplane.interning.pool_size": interning.pool_size(),
        "dataplane.switch.packets_dropped": sum(
            device.switch.counters.packets_dropped for device in sim.topology.switches()
        ),
    }


#: Every per-layer count a job reports (the same keys on every workload),
#: with its unit. ``sim_us`` is simulated time, ``us`` host time.
LAYER_COUNTS = {
    "netsim.routing.forwarding_rules": "count",
    "core.controller.tree_switches": "count",
    "core.packet.packets_injected": "count",
    "core.packet.pairs_per_data_packet": "ratio",
    "netsim.events.pending_after_send": "count",
    "netsim.events.logical_events": "count",
    "netsim.events.dispatches": "count",
    "netsim.events.dispatch_ratio": "ratio",
    "netsim.simulator.host_us_per_event": "us",
    "netsim.simulator.job_sim_us": "sim_us",
    "netsim.stats.link_packets": "count",
    "netsim.stats.losses": "count",
    "netsim.stats.queue_drops": "count",
    "netsim.stats.fault_drops": "count",
    "netsim.host.reducer_packets": "count",
    "core.aggregation.pairs_received": "count",
    "core.aggregation.pairs_emitted": "count",
    "core.aggregation.reduction_ratio": "ratio",
    "core.aggregation.collisions": "count",
    "core.aggregation.spillover_flushes": "count",
    "core.aggregation.duplicate_packets": "count",
    "core.aggregation.retransmitted_packets": "count",
    "dataplane.switch.packets_dropped": "count",
    "dataplane.interning.pool_size": "count",
    "transport.reliability.retransmissions": "count",
    "transport.reliability.timeouts": "count",
    "transport.reliability.acks_sent": "count",
    "transport.reliability.pulls_sent": "count",
    "transport.reliability.first_send_share": "ratio",
    "transport.udp.retransmissions": "count",
    "core.failover.actions": "count",
    "core.failover.detect_sim_us": "sim_us",
    "netsim.faults.events": "count",
}


def _zero_layers(*prefixes: str) -> dict:
    """Counts of layers a workload never calls: zero, reported for a full row."""
    return {name: 0 for name in LAYER_COUNTS if name.startswith(prefixes)}


class Workload:
    """Seeded inputs plus the job that consumes them."""

    name = ""
    mappers = 0
    pairs_per_mapper = 0
    vocabulary = 0

    def __init__(self, seed: int) -> None:
        self.corpus = make_corpus(seed, self.mappers, self.pairs_per_mapper, self.vocabulary)
        # The loss stream is seeded by the seed's last two digits, so seed
        # 2017 replays the repository's scale sweep (loss seed 17).
        self.loss_seed = seed % 100

    def job(self, spans: SpanRecorder) -> JobOutcome:
        raise NotImplementedError

    def check(self, counts: dict) -> str | None:
        """Workload-specific check of a complete, correct job (None = pass)."""
        return None


class DaietWorkload(Workload):
    """One DAIET aggregation job: a single tree rooted at the reducer host."""

    def topology(self) -> Topology:
        raise NotImplementedError

    def config(self) -> DaietConfig:
        raise NotImplementedError

    def hosts(self) -> tuple[list[str], str]:
        """(mapper hosts, reducer host)."""
        raise NotImplementedError

    def install_faults(self, system: DaietSystem, spans: SpanRecorder):
        """Hook for the crash workload: install faults, start failover."""
        return None

    def job(self, spans: SpanRecorder) -> JobOutcome:
        mappers, reducer = self.hosts()
        with spans.span("netsim.topology.build"):
            topo = self.topology()
        with spans.span("netsim.simulator.init"):
            system = DaietSystem(
                topo,
                self.config(),
                SimulatorConfig(auto_install_routes=False, loss_seed=self.loss_seed),
            )
        sim = system.simulator
        with spans.span("netsim.routing.install"):
            rules = sim.install_routes()
        with spans.span("core.controller.install_job"):
            system.install_job(mappers=mappers, reducers=[reducer])
        failover = self.install_faults(system, spans)
        with spans.span("core.daiet.send_pairs"):
            injected = 0
            for mapper, pairs in zip(mappers, self.corpus.partitions):
                injected += system.send_pairs(mapper, reducer, pairs)
        pending = len(sim.scheduler)
        with spans.span("netsim.simulator.run") as run_span:
            events = system.run()
        with spans.span("core.daiet.collect"):
            receiver = system.receiver(reducer)
            complete = receiver.done
            result = receiver.result()
        read = partial(
            self._read, system, reducer, rules, pending, events, run_span, injected, failover
        )
        return JobOutcome(result, complete, read)

    def _read(self, system, reducer, rules, pending, events, run_span, injected, failover):
        """Simulated outputs and per-layer counts of a finished job."""
        sim = system.simulator
        run_s = run_span["end"] - run_span["start"]
        engines = list(system.controller.tree_counters().values())
        reliability = list(system.reliability_stats().values())
        host_retx = sum(s["retransmissions"] for s in reliability)
        switch_retx = sum(c.retransmitted_packets for c in engines)
        received = sum(c.pairs_received for c in engines)
        emitted = sum(c.pairs_emitted for c in engines)
        first_sends = sum(s["packets_sent"] for s in reliability)
        counts = _netsim_counts(sim, reducer, rules, pending, events, run_s)
        counts.update(_zero_layers("transport.udp", "core.failover", "netsim.faults.events"))
        counts.update(
            {
                "core.controller.tree_switches": len(system.tree_for(reducer).switches()),
                "core.packet.packets_injected": injected,
                "core.packet.pairs_per_data_packet": self.corpus.pairs
                / (injected - self.mappers),
                "core.aggregation.pairs_received": received,
                "core.aggregation.pairs_emitted": emitted,
                "core.aggregation.reduction_ratio": 1 - emitted / received if received else 0.0,
                "core.aggregation.collisions": sum(c.collisions for c in engines),
                "core.aggregation.spillover_flushes": sum(c.spillover_flushes for c in engines),
                "core.aggregation.duplicate_packets": sum(c.duplicate_packets for c in engines),
                "core.aggregation.retransmitted_packets": switch_retx,
                "transport.reliability.retransmissions": host_retx,
                "transport.reliability.timeouts": sum(s["timeouts"] for s in reliability),
                "transport.reliability.acks_sent": sum(s["acks_sent"] for s in reliability),
                "transport.reliability.pulls_sent": sum(s["pulls_sent"] for s in reliability),
                "transport.reliability.first_send_share": first_sends
                / (first_sends + host_retx)
                if first_sends
                else 0.0,
            }
        )
        if failover is not None:
            counts.update(failover())
        return _simulated(sim, reducer, events, host_retx + switch_retx), counts


class RackWordcount(DaietWorkload):
    name = "rack_wordcount"
    mappers = 16
    pairs_per_mapper = 12_000
    vocabulary = 8_000

    def topology(self) -> Topology:
        return single_rack(num_hosts=self.mappers + 1)

    def config(self) -> DaietConfig:
        return DaietConfig(register_slots=16 * 1024, reliability=False, retransmit_timeout=1e-4)

    def hosts(self) -> tuple[list[str], str]:
        return [f"h{i}" for i in range(self.mappers)], f"h{self.mappers}"


class SpineReliable(DaietWorkload):
    name = "spine1024_reliable"
    mappers = 1024
    pairs_per_mapper = 400
    vocabulary = 4_000

    def topology(self) -> Topology:
        return _leaf_spine(self.mappers + 1, UPLINK_LOSS)

    def config(self) -> DaietConfig:
        return _scale_config()

    def hosts(self) -> tuple[list[str], str]:
        return [f"h{i}" for i in range(1, self.mappers + 1)], "h0"


class SpineCrash(SpineReliable):
    name = "spine256_spine_crash"
    mappers = 256

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        # Untimed pilot: the same job without the crash times the schedule.
        self.crash_time: float | None = None
        pilot = self.job(SpanRecorder())
        if not (pilot.complete and pilot.result == self.corpus.truth):
            raise RuntimeError("the fault-free pilot diverged from ground truth")
        simulated, _counts = pilot.read()
        self.crash_time = CRASH_FRACTION * simulated["sim_job_us"] / 1e6

    def config(self) -> DaietConfig:
        return _scale_config(retain_for_replay=True)

    def check(self, counts: dict) -> str | None:
        if self.crash_time is not None and not counts["core.failover.actions"]:
            return "the spine crash was never handled by failover"
        return None

    def install_faults(self, system: DaietSystem, spans: SpanRecorder):
        if self.crash_time is None:
            return None
        spine = sorted(
            node.name
            for node in system.tree_for("h0").switches()
            if node.name.startswith("spine")
        )[0]
        with spans.span("netsim.faults.install"):
            injector = install_faults(
                system.simulator, FaultPlan().switch_crash(self.crash_time, spine)
            )
        with spans.span("core.failover.start"):
            manager = FailoverManager(system, injector)
            manager.start()
        crash_time = self.crash_time

        def counts() -> dict:
            detected = [t for t, what in manager.log if what.startswith("detected crash")]
            return {
                "core.failover.actions": len(manager.log),
                "core.failover.detect_sim_us": (detected[0] - crash_time) * 1e6
                if detected
                else 0.0,
                "netsim.faults.events": len(injector.log),
            }

        return counts


class UdpShuffle(Workload):
    name = "spine256_udp_shuffle"
    mappers = 256
    pairs_per_mapper = SpineReliable.pairs_per_mapper
    vocabulary = SpineReliable.vocabulary

    def job(self, spans: SpanRecorder) -> JobOutcome:
        reducer = "h0"
        mappers = [f"h{i}" for i in range(1, self.mappers + 1)]
        aggregate: dict[str, int] = {}

        def on_message(_src: str, payload: MessagePayload) -> None:
            if payload.kind != "pairs":
                return
            for key, value in payload.data:
                aggregate[key] = aggregate.get(key, 0) + value

        with spans.span("netsim.topology.build"):
            topo = _leaf_spine(self.mappers + 1, UPLINK_LOSS)
        with spans.span("netsim.simulator.init"):
            sim = NetworkSimulator(
                topo, SimulatorConfig(auto_install_routes=False, loss_seed=self.loss_seed)
            )
        with spans.span("netsim.routing.install"):
            rules = sim.install_routes()
        with spans.span("transport.udp.init"):
            transport = ReliableUdpTransport(
                sim,
                retransmit_timeout=1e-4,
                ack_window=8,
                max_retransmits=30,
                tuning=TransportTuning(rto_floor=BASELINE_RTO_FLOOR),
            )
            transport.listen_reliable(reducer, BASELINE_PORT, on_message)
        per_packet = 10
        with spans.span("transport.udp.send_reliable"):
            datagrams = 0
            for mapper, pairs in zip(mappers, self.corpus.partitions):
                for i in range(0, len(pairs), per_packet):
                    chunk = pairs[i : i + per_packet]
                    transport.send_reliable(
                        mapper,
                        reducer,
                        MessagePayload(kind="pairs", data=chunk),
                        len(chunk) * BASELINE_PAIR_BYTES,
                        port=BASELINE_PORT,
                    )
                    datagrams += 1
        pending = len(sim.scheduler)
        with spans.span("netsim.simulator.run") as run_span:
            events = sim.run()
        with spans.span("transport.udp.collect"):
            complete = all(
                transport.flow_done(mapper, reducer, BASELINE_PORT) for mapper in mappers
            )
            result = dict(aggregate)
        read = partial(
            self._read, sim, transport, reducer, rules, pending, events, run_span, datagrams
        )
        return JobOutcome(result, complete, read)

    def _read(self, sim, transport, reducer, rules, pending, events, run_span, datagrams):
        """Simulated outputs and per-layer counts of a finished job."""
        run_s = run_span["end"] - run_span["start"]
        retx = transport.stats.retransmissions
        counts = _netsim_counts(sim, reducer, rules, pending, events, run_s)
        counts.update(
            _zero_layers(
                "core.controller", "core.aggregation", "transport.reliability",
                "core.failover", "netsim.faults.events",
            )
        )
        counts.update(
            {
                "core.packet.packets_injected": datagrams,
                "core.packet.pairs_per_data_packet": self.corpus.pairs / datagrams,
                "transport.udp.retransmissions": retx,
            }
        )
        return _simulated(sim, reducer, events, retx), counts


WORKLOADS = {
    cls.name: cls for cls in (RackWordcount, SpineReliable, UdpShuffle, SpineCrash)
}
