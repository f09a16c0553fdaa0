"""The discrete-event network engine.

:class:`Network` owns the topology graph, the virtual clock, the event
queue and the forwarding logic.  Forwarding implements:

* per-hop TTL decrement with ICMP Time-Exceeded generation (suppressed
  on *anonymized* routers, which therefore traceroute as ``*``);
* hash-based ECMP: where several equal-cost next hops exist the choice
  is a deterministic hash of the destination address, so different
  destinations take different paths through an ISP — the property the
  paper's coverage experiments rely on (section 4.2.2);
* middlebox hooks: wiretaps receive a copy of every transiting packet
  *before* TTL processing, inline middleboxes are consulted *after* the
  TTL decrement but *before* the expiry check, so a censored request
  whose TTL dies at (or beyond) the middlebox hop still elicits a
  censorship notification instead of an ICMP error — exactly the
  behaviour reported in section 4.2.1.
"""

from __future__ import annotations

import itertools
import zlib
from array import array
from collections import Counter
from heapq import heappop, heappush
from typing import (TYPE_CHECKING, Callable, Dict, Iterator, List, Optional,
                    Tuple)

if TYPE_CHECKING:  # pragma: no cover - typing only, no import cycle
    from ..obs.trace import TraceBus

from .capture import Recorder
from .devices import Host, Node, Router
from .errors import (EventLimitExceeded, RoutingError, SimulationError,
                     UnknownNodeError)
from .faults import (
    DEFAULT_HARDENING,
    NO_HARDENING,
    FaultInjector,
    FaultPlan,
    HardeningPolicy,
)
from .packets import Packet, make_time_exceeded
from ..obs.trace import flow_id as _flow_id

#: Default one-way link delay in (virtual) seconds.
DEFAULT_LINK_DELAY = 0.005

#: Size guard for the delivery-plan cache.  Its key space is bounded
#: by the address plan of a single world, so the limit only matters
#: for pathological synthetic workloads; hitting it clears the cache
#: (correctness is unaffected — entries are pure memoization).
FWD_PLAN_CACHE_MAX = 1 << 18

#: Compiled forwarding-plan kinds (see :meth:`Network._plan_for`).
_PLAN_LINK = 0
_PLAN_LOCAL = 1
_PLAN_NO_ROUTE = 2
_PLAN_EXPRESS = 3

#: The no-route plan carries no target; shared across all keys.
_NO_ROUTE_PLAN = (_PLAN_NO_ROUTE, None, 0.0)

#: A FIB entry: distances by node ordinal, the lazily filled rows of
#: ECMP candidates, and the name of the node the sweep started from.
_FibEntry = Tuple[array, Dict[str, List[str]], str]

#: Inline middlebox verdicts.
FORWARD = "forward"
DROP = "drop"
CONSUMED = "consumed"


def _ecmp_hash(src_ip: Optional[str], dst_ip: str, node_name: str) -> int:
    """Deterministic, unsalted hash used for ECMP next-hop selection.

    The hash key is the *unordered* address pair, so both directions of
    a flow hash identically and take mirrored paths — without this,
    middleboxes would see only one side of the handshakes they must
    observe to build flow state.  When no source is known (bare path
    queries) the destination alone is used.
    """
    if src_ip is None:
        key = f"{dst_ip}|{node_name}"
    else:
        lo, hi = sorted((src_ip, dst_ip))
        key = f"{lo}|{hi}|{node_name}"
    return zlib.crc32(key.encode("ascii"))


def dijkstra_distances(adjacency: Dict[str, Dict[str, float]],
                       source: str) -> Dict[str, float]:
    """Shortest-path delay between *source* and every node it reaches.

    Neighbours relax in adjacency order, heap ties break by push order
    and the source sits at integer ``0``: the steps, and so the floats,
    of networkx's ``single_source_dijkstra_path_length``, which
    ``tests/netsim/test_fib_property.py`` holds this to exactly.

    A node with one link never enters the heap: links are
    bidirectional, so only the node at the link's other end reaches
    it.  Its distance is set when that node settles, to the sum the
    heap would have popped, and popping it would relax nothing.
    Leaving it out removes only its own heap entry, so every other
    node pops in the same order, at the same distance.
    """
    dist: Dict[str, float] = {}
    seen: Dict[str, float] = {source: 0}
    counter = itertools.count()
    fringe = [(0, next(counter), source)]
    while fringe:
        dist_v, _, v = heappop(fringe)
        if v in dist:
            continue
        dist[v] = dist_v
        for u, delay in adjacency[v].items():
            if u in dist:
                continue
            vu_dist = dist_v + delay
            if len(adjacency[u]) == 1:
                dist[u] = vu_dist
            elif u not in seen or vu_dist < seen[u]:
                seen[u] = vu_dist
                heappush(fringe, (vu_dist, next(counter), u))
    return dist


class Network:
    """The simulated internetwork: topology, clock, events, forwarding."""

    def __init__(self) -> None:
        #: The topology: node name -> {neighbour name: link delay}.
        self.adjacency: Dict[str, Dict[str, float]] = {}
        self.nodes: Dict[str, Node] = {}
        #: node name -> its ordinal, the order :meth:`add_node` saw it
        #: in; a FIB entry's distances are indexed by it.
        self._ordinals: Dict[str, int] = {}
        self.ip_owner: Dict[str, Node] = {}
        self.now: float = 0.0
        #: ``(now, reason, packet)`` per dropped packet, kept only
        #: inside a reader's window (``with network.drops.armed():``);
        #: :meth:`drop_stats` counts every drop, armed or not.
        self.drops = Recorder()
        self._drop_counter: Counter = Counter()
        #: The event queue: a binary heap of ``(when, seq, fn, args)``
        #: entries.  ``seq`` is a global monotonic counter, so events
        #: due at the same time run in the order they were scheduled.
        self._queue: List[Tuple[float, int, Callable, tuple]] = []
        self._seq = itertools.count()
        self._events_processed = 0
        #: Monotonic counter bumped on every topology/addressing change;
        #: all derived routing state (FIB, paths, plans) is valid
        #: only for the generation it was computed under.
        self._generation = 0
        #: sweep source name -> (distances by node ordinal, -1.0 where
        #: unreachable; {node name -> sorted ECMP candidate names}; the
        #: source name); a node's row is filled when it first asks.
        self._sweeps: Dict[str, _FibEntry] = {}
        #: dst node name -> its FIB entry, a sweep in :attr:`_sweeps`
        #: (see :meth:`_fib_for`).
        self._fib: Dict[str, _FibEntry] = {}
        #: (node name, dst_ip, src_ip) -> compiled forwarding step —
        #: the delivery plan consulted by :meth:`_dispatch` instead of
        #: re-deriving next hop and link delay per packet.  Built
        #: lazily from :meth:`next_hop` (so equivalence is by
        #: construction), invalidated with the other routing caches.
        self._fwd_plans: Dict[Tuple[str, str, Optional[str]], tuple] = {}
        #: Installed by :meth:`install_faults`; ``None`` means a perfect
        #: network — the seed repo's behaviour, byte for byte.
        self.faults: Optional[FaultInjector] = None
        #: Client resilience knobs consulted by dns/http/tcp layers.
        #: Stays at seed-repo single-shot behaviour until faults are
        #: installed.
        self.hardening: HardeningPolicy = NO_HARDENING
        #: Lifetime cap on :attr:`events_processed`: the event that
        #: takes the count past it raises :class:`EventLimitExceeded`
        #: after it has run.  Campaign workers set it per unit from
        #: ``--unit-steps``; ``None`` means no cap.
        self.event_limit: Optional[int] = None
        #: Structured trace bus (``repro.obs.trace``); ``None`` — the
        #: default — costs one attribute test per emit site, an
        #: attached-but-unsubscribed bus one extra ``active`` test.
        self.trace: Optional["TraceBus"] = None
        #: Always-on forwarding-cache statistics.  Plain integer
        #: attributes (never dicts) so the hot path pays a single
        #: in-place add; ``repro.obs.metrics`` scrapes them into the
        #: catalogued metric names.
        self.fib_hits = 0
        self.fib_builds = 0
        self.fwd_plan_hits = 0
        self.fwd_plan_builds = 0
        #: Express delivery-plan counters, maintained by
        #: ``repro.core.measure.fastprobe`` (kept here so one scrape
        #: covers the whole forwarding fast path).
        self.express_plan_hits = 0
        self.express_plan_builds = 0
        #: The express-probe memos of ``repro.core.measure.fastprobe``:
        #: memo name -> (topology generation, {key: value}).  They live
        #: on the network they describe, so they die with it.
        self.express_memos: Dict[str, Tuple[int, Dict]] = {}
        #: Hardened-client retry accounting: ``layer -> count``
        #: (clients bump it; same pattern as the drop counter).
        self.client_retries: Counter = Counter()
        #: Probe source-port counters, keyed by each pool's first port
        #: (see :meth:`next_probe_port`).
        self._probe_ports: Dict[int, Iterator[int]] = {}
        #: DNS query ids, IP-IDs and TCP initial sequence numbers (see
        #: :meth:`next_qid`, :meth:`next_ip_id`, :meth:`next_iss`).
        self._qids = itertools.count(1)
        self._ip_ids = itertools.count(1)
        self._iss_counter = itertools.count(1)

    def next_probe_port(self, first: int) -> int:
        """Next source port of the probe pool that starts at *first*.

        The counters live on the network, not in a module: a
        module-global counter would make a probe's port — and so the
        bytes a unit puts on the wire — depend on which units its
        process ran earlier.  Per network, every freshly built world
        sends the same ports in any process (campaign worker or serial
        run).
        """
        counter = self._probe_ports.get(first)
        if counter is None:
            counter = self._probe_ports[first] = itertools.count(first)
        return next(counter)

    def next_qid(self) -> int:
        """Next DNS query id (1, 2, …, wrapping at 16 bits).

        Per network, like :meth:`next_probe_port`, so a freshly built
        world's lookups carry the same ids in any process.
        """
        return next(self._qids) & 0xFFFF

    def next_ip_id(self) -> int:
        """Next IP identification value (1, 2, …, wrapping at 16 bits).

        Per network, like :meth:`next_qid`: whether a genuine packet
        draws a censor's fixed IP-ID (Airtel's 242, which an evasion
        firewall drops) must not depend on what the process ran before.
        """
        return next(self._ip_ids) & 0xFFFF

    def next_iss(self) -> int:
        """Next TCP initial sequence number, ``10_000 + 100_000·n`` for
        the network's n-th connection end.

        Deterministic and distinctive: easy to spot in captures and
        never one a middlebox forges.  Per network, like
        :meth:`next_qid`, so a fresh world's first SYN is the same in
        any process.
        """
        return 10_000 + 100_000 * next(self._iss_counter)

    def install_faults(self, plan: FaultPlan,
                       hardening: Optional[HardeningPolicy] = None,
                       ) -> FaultInjector:
        """Activate a fault plan (and, by default, client hardening).

        Passing ``hardening=None`` selects :data:`~.faults.DEFAULT_HARDENING`
        — injecting faults without hardening the clients is almost never
        what an experiment wants, but tests can pass
        :data:`~.faults.NO_HARDENING` explicitly to demonstrate the
        failure modes.
        """
        self.faults = FaultInjector(plan)
        self.hardening = DEFAULT_HARDENING if hardening is None else hardening
        return self.faults

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------

    @property
    def topology_generation(self) -> int:
        """Current topology/addressing generation (cache epoch).

        Consumers caching anything derived from the topology — paths,
        forwarding tables, middlebox placements — key it on this value
        and recompute when it moves.
        """
        return self._generation

    def invalidate_routing_caches(self) -> None:
        """Advance the generation and drop all derived routing state."""
        self._generation += 1
        self._fib.clear()
        self._sweeps.clear()
        self._fwd_plans.clear()

    def add_node(self, node: Node) -> Node:
        """Attach a host or router to the network."""
        if node.name in self.nodes:
            raise SimulationError(f"duplicate node name: {node.name}")
        self.nodes[node.name] = node
        self._ordinals[node.name] = len(self._ordinals)
        node.network = self
        self.adjacency[node.name] = {}
        for ip in node.ips:
            self.register_ip(ip, node)
        self.invalidate_routing_caches()
        return node

    def add_host(self, name: str, ip: str, asn: int = 0) -> Host:
        """Create, address and attach a host in one call."""
        host = Host(name, asn)
        self.add_node(host)
        host.add_ip(ip)
        return host

    def add_router(self, name: str, ip: str, asn: int = 0,
                   *, anonymized: bool = False) -> Router:
        """Create, address and attach a router in one call."""
        router = Router(name, asn, anonymized=anonymized)
        self.add_node(router)
        router.add_ip(ip)
        return router

    def register_ip(self, ip: str, node: Node) -> None:
        """Record that *node* owns interface address *ip*."""
        existing = self.ip_owner.get(ip)
        if existing is not None and existing is not node:
            raise SimulationError(
                f"IP {ip} already owned by {existing.name}, "
                f"cannot assign to {node.name}"
            )
        if existing is None:
            # A new destination address invalidates delivery plans (the
            # FIB itself is keyed per owner *node* and unaffected).
            self._generation += 1
            self._fwd_plans.clear()
        self.ip_owner[ip] = node

    def link(self, a: str, b: str, delay: float = DEFAULT_LINK_DELAY) -> None:
        """Connect two nodes with a bidirectional link of given delay."""
        for name in (a, b):
            if name not in self.nodes:
                raise UnknownNodeError(f"unknown node: {name}")
        self.adjacency[a][b] = delay
        self.adjacency[b][a] = delay
        self.invalidate_routing_caches()

    def node(self, name: str) -> Node:
        try:
            return self.nodes[name]
        except KeyError:
            raise UnknownNodeError(f"unknown node: {name}") from None

    def owner_of(self, ip: str) -> Optional[Node]:
        """Return the node owning interface address *ip*, if any."""
        return self.ip_owner.get(ip)

    # ------------------------------------------------------------------
    # Event queue
    # ------------------------------------------------------------------

    def call_later(self, delay: float, fn: Callable, *args) -> None:
        """Schedule ``fn(*args)`` at ``now + delay``."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        heappush(self._queue, (self.now + delay, next(self._seq), fn, args))

    def call_at(self, when: float, fn: Callable, *args) -> None:
        """Schedule ``fn(*args)`` at absolute virtual time *when*."""
        if when < self.now:
            raise SimulationError(f"cannot schedule in the past: {when} < {self.now}")
        heappush(self._queue, (when, next(self._seq), fn, args))

    def run(self, until: Optional[float] = None, max_events: int = 20_000_000) -> int:
        """Process events until the queue drains or *until* is reached.

        Returns the number of events processed by this call.  At most
        *max_events* events execute: the budget check runs *before*
        each event, so a blown budget raises with exactly *max_events*
        executed, never one more.  :attr:`event_limit` is checked
        *after* each event instead, against the lifetime count, so the
        event that crosses it has run and counts.
        """
        processed = 0
        # Hot loop: hoist attribute lookups that are invariant across
        # the run (the event limit is set only between runs).
        queue = self._queue
        pop = heappop
        limit = self.event_limit
        while queue:
            when = queue[0][0]
            if until is not None and when > until:
                break
            if processed >= max_events:
                raise SimulationError(
                    f"event budget exceeded ({max_events}); "
                    f"likely a packet loop"
                )
            when, _, fn, args = pop(queue)
            if when > self.now:
                self.now = when
            fn(*args)
            processed += 1
            # Counted live: a fused transit chain in :meth:`_dispatch`
            # adds to the same count and checks the same limit mid-run.
            self._events_processed += 1
            if limit is not None and self._events_processed > limit:
                raise EventLimitExceeded(limit)
        if until is not None and self.now < until:
            self.now = until
        return processed

    def run_until_idle(self, max_events: int = 20_000_000) -> int:
        """Run until no events remain."""
        return self.run(until=None, max_events=max_events)

    @property
    def pending_events(self) -> int:
        return len(self._queue)

    @property
    def events_processed(self) -> int:
        """Total events executed over this network's lifetime."""
        return self._events_processed

    # ------------------------------------------------------------------
    # Routing (hash-based ECMP over shortest paths)
    # ------------------------------------------------------------------

    def _ecmp_candidates(self, node_name: str, dist: array) -> List[str]:
        """Sorted equal-cost next-hop names from *node_name* toward the
        node *dist* was measured from."""
        ordinals = self._ordinals
        best_cost = None
        candidates: List[str] = []
        for neighbor, delay in self.adjacency[node_name].items():
            neighbor_dist = dist[ordinals[neighbor]]
            if neighbor_dist < 0.0:
                continue
            cost = delay + neighbor_dist
            if best_cost is None or cost < best_cost - 1e-12:
                best_cost = cost
                candidates = [neighbor]
            elif abs(cost - best_cost) <= 1e-12:
                candidates.append(neighbor)
        candidates.sort()
        return candidates

    def _fib_for(self, dst_name: str) -> _FibEntry:
        """The forwarding table toward *dst_name*, found on first use.

        A table is one Dijkstra sweep, packed into an ``array('d')`` of
        distances indexed by node ordinal (-1.0 where unreachable):
        eight bytes a node, where the sweep's dict holds an entry and a
        float object.  It sits beside an empty row map, and
        :meth:`next_hop` fills a node's sorted candidate row the first
        time that node asks, so a sweep costs nothing for nodes no
        packet routes from.

        The sweep is from *dst_name*, unless it has one neighbour (a
        host on its uplink): every path to it ends at that uplink, so
        each node's distance is the uplink's plus the same link, and
        its equal-cost candidates are those toward the uplink.  Such a
        destination shares its uplink's sweep and rows, and only the
        uplink itself answers differently (:meth:`next_hop`).  Sweeps
        are kept per source and retired with every table by
        :meth:`invalidate_routing_caches`; ``fib_builds`` and
        ``fib_hits`` count per destination all the same.
        """
        table = self._fib.get(dst_name)
        if table is not None:
            self.fib_hits += 1
            return table
        self.fib_builds += 1
        neighbours = self.adjacency[dst_name]
        source = next(iter(neighbours)) if len(neighbours) == 1 else dst_name
        table = self._sweeps.get(source)
        if table is None:
            dist = dijkstra_distances(self.adjacency, source)
            # Ordinals count up in insertion order, so iterating them
            # visits ordinal 0, 1, 2, ...
            table = self._sweeps[source] = (
                array("d", [dist.get(name, -1.0) for name in self._ordinals]),
                {}, source)
        self._fib[dst_name] = table
        return table

    def next_hop(self, from_node: Node, dst_ip: str,
                 src_ip: Optional[str] = None) -> Optional[Node]:
        """ECMP next hop from *from_node* toward *dst_ip*, or None."""
        owner = self.ip_owner.get(dst_ip)
        if owner is None or owner is from_node:
            return None
        dist, rows, source = self._fib_for(owner.name)
        name = from_node.name
        if name == source:
            # The owner's uplink: the owner is its one-link neighbour.
            return owner
        candidates = rows.get(name)
        if candidates is None:
            if dist[self._ordinals[name]] < 0.0:
                return None
            candidates = rows[name] = self._ecmp_candidates(name, dist)
        if len(candidates) == 1:
            return self.nodes[candidates[0]]
        if not candidates:
            return None
        digest = _ecmp_hash(src_ip, dst_ip, name)
        return self.nodes[candidates[digest % len(candidates)]]

    def path_to(self, from_node: Node, dst_ip: str,
                src_ip: Optional[str] = None) -> List[Node]:
        """The full ECMP path a packet for *dst_ip* takes from *from_node*.

        ``src_ip`` defaults to the node's own primary address so planned
        paths match the paths that node's packets actually take.  Used
        by the express probing layer; equivalence with packet-by-packet
        forwarding is covered by property tests.  A walk longer than 64
        hops raises :class:`RoutingError`.
        """
        if src_ip is None and from_node.ips:
            src_ip = from_node.ip
        owner = self.ip_owner.get(dst_ip)
        if owner is None:
            raise RoutingError(f"no node owns {dst_ip}")
        path = [from_node]
        current = from_node
        for _ in range(64):
            if current is owner:
                return path
            nxt = self.next_hop(current, dst_ip, src_ip)
            if nxt is None:
                raise RoutingError(
                    f"no route from {from_node.name} to {dst_ip} "
                    f"(stuck at {current.name})"
                )
            path.append(nxt)
            current = nxt
        raise RoutingError(f"path to {dst_ip} exceeds 64 hops")

    def hop_count(self, from_node: Node, dst_ip: str) -> int:
        """Number of forwarding hops from *from_node* to *dst_ip*."""
        return len(self.path_to(from_node, dst_ip)) - 1

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------

    def _plan_for(self, from_node: Node, dst_ip: str,
                  src_ip: Optional[str]) -> tuple:
        """The compiled delivery plan from *from_node* for this flow.

        Built once per (node, dst, src) from :meth:`next_hop`, then
        served as two dict lookups — the delivery-plan analogue of the
        FIB, one level higher.  ``tests/netsim/reference_delivery.py``
        forwards hop by hop from :meth:`next_hop` alone, and the plans
        must agree with it.  Shapes:

        * ``(_PLAN_LINK, next_node, delay)`` — single forwarding step.
        * ``(_PLAN_EXPRESS, final_node, delays, n_transit, next_node,
          delay)`` — a fused chain of pure-transit routers (no taps, no
          inline middlebox): the packet can jump straight to
          *final_node* (the owner host or the first router that
          actually processes traffic).  ``delays`` are the per-link
          delays in traversal order — accumulated left-to-right at use
          time they reproduce the per-hop arrival float exactly, since
          the seed advances ``now`` to each intermediate event's time
          before adding the next delay.  The trailing ``next_node,
          delay`` pair is the single-step fallback used when something
          *can* observe intermediate hops (faults, an active trace, or
          a TTL that would expire mid-chain).
        * ``(_PLAN_LOCAL, owner, 0.0)`` — loopback delivery.
        * ``_NO_ROUTE_PLAN``.

        Plans are retired by :meth:`invalidate_routing_caches`, which
        middlebox attachment also triggers (taps and inline boxes end a
        transit chain, so their placement is part of the plan).
        """
        plans = self._fwd_plans
        key = (from_node.name, dst_ip, src_ip)
        plan = plans.get(key)
        if plan is not None:
            self.fwd_plan_hits += 1
            return plan
        self.fwd_plan_builds += 1
        owner = self.ip_owner.get(dst_ip)
        if owner is None:
            plan = _NO_ROUTE_PLAN
        elif owner is from_node:
            plan = (_PLAN_LOCAL, owner, 0.0)
        else:
            nxt = self.next_hop(from_node, dst_ip, src_ip)
            if nxt is None:
                plan = _NO_ROUTE_PLAN
            else:
                adjacency = self.adjacency
                first_delay = adjacency[from_node.name][nxt.name]
                delays = [first_delay]
                node = nxt
                # Extend through pure-transit routers.  Stops at the
                # owner, any host, a router with taps or an inline box,
                # or a routing dead end (the final node then handles
                # its own processing/drop exactly as per-hop would).
                while (type(node) is Router and node is not owner
                       and not node.taps and node.inline_middlebox is None
                       and len(delays) < 64):
                    following = self.next_hop(node, dst_ip, src_ip)
                    if following is None:
                        break
                    delays.append(adjacency[node.name][following.name])
                    node = following
                if len(delays) == 1:
                    plan = (_PLAN_LINK, nxt, first_delay)
                else:
                    plan = (_PLAN_EXPRESS, node, tuple(delays),
                            len(delays) - 1, nxt, first_delay)
        if len(plans) >= FWD_PLAN_CACHE_MAX:
            plans.clear()
        plans[key] = plan
        return plan

    def transmit(self, from_node: Node, packet: Packet) -> None:
        """Emit *packet* from *from_node* toward its destination, with
        the next IP-ID unless it carries one."""
        if packet.ip_id is None:
            packet.ip_id = self.next_ip_id()
        self._dispatch(from_node, packet, False)

    def _dispatch(self, node: Node, packet: Packet, transit: bool) -> None:
        """Send *packet* onward from *node* by its delivery plan.

        *transit* marks a packet routed through *node* rather than sent
        by it: its no-route drop then names the router.
        """
        plan = self._plan_for(node, packet.dst, packet.src)
        kind = plan[0]
        if kind == _PLAN_EXPRESS:
            trace = self.trace
            if (self.faults is None and packet.ttl > plan[3]
                    and (trace is None or not trace.active)):
                when = self.now
                for delay in plan[2]:
                    when += delay
                packet.ttl -= plan[3]
                # The skipped transit arrivals still count as events,
                # and against the limit, so ``events_processed`` — and
                # the journal's per-unit "steps" — matches the per-hop
                # path (e.g. the same unit run under --trace).
                self._events_processed += plan[3]
                limit = self.event_limit
                if limit is not None and self._events_processed > limit:
                    raise EventLimitExceeded(limit)
                heappush(self._queue, (when, next(self._seq),
                                       self._arrive, (plan[1], packet)))
            else:
                # Per-hop fallback: take one step; downstream routers
                # re-decide at their own plan.
                self._forward_link(node, plan[4], packet, plan[5])
        elif kind == _PLAN_LINK:
            if self.faults is None:
                heappush(self._queue, (self.now + plan[2], next(self._seq),
                                       self._arrive, (plan[1], packet)))
            else:
                self._forward_link(node, plan[1], packet, plan[2])
        elif kind == _PLAN_LOCAL:
            self.call_later(0.0, self._deliver_local, plan[1], packet)
        else:
            self._drop(f"no-route:{node.name}" if transit else "no-route",
                       packet)

    def _drop(self, reason: str, packet: Packet) -> None:
        """Count a dropped packet, and record it while a reader has
        :attr:`drops` armed."""
        self._drop_counter[reason] += 1
        self.drops.append((self.now, reason, packet))
        trace = self.trace
        if trace is not None and trace.active:
            trace.emit("drop", self.now, reason=reason,
                       flow=_flow_id(packet), dst=packet.dst)

    def _forward_link(self, from_node: Node, to_node: Node,
                      packet: Packet, delay: float) -> None:
        """Put *packet* on the *delay* link toward *to_node*, unless
        the fault layer loses it."""
        if (self.faults is not None
                and self.faults.dropped(from_node.name, to_node.name)):
            self._drop(f"fault-loss:{from_node.name}->{to_node.name}",
                       packet)
            return
        self.call_later(delay, self._arrive, to_node, packet)

    def _deliver_local(self, node: Node, packet: Packet) -> None:
        if isinstance(node, Host):
            trace = self.trace
            if trace is not None and trace.active:
                trace.emit("deliver", self.now, node=node.name,
                           flow=_flow_id(packet),
                           proto=packet.flow_key()[0])
            node.deliver(packet, self.now)

    def _arrive(self, node: Node, packet: Packet) -> None:
        """A packet arrives at *node*: terminate, or route onward."""
        if isinstance(node, Host):
            if node.owns_ip(packet.dst):
                trace = self.trace
                if trace is not None and trace.active:
                    trace.emit("deliver", self.now, node=node.name,
                               flow=_flow_id(packet),
                               proto=packet.flow_key()[0])
                node.deliver(packet, self.now)
            else:
                # Hosts do not forward.
                self._drop("host-not-dst", packet)
            return
        assert isinstance(node, Router)
        self._route_through(node, packet)

    def _route_through(self, router: Router, packet: Packet) -> None:
        # Wiretaps copy traffic before any TTL processing: a probe whose
        # TTL dies at this hop is still observed (and can still trigger
        # censorship), matching the Iterative Network Tracer findings.
        for tap in router.taps:
            tap.on_copy(packet.clone(), self.now, router)

        packet.ttl -= 1

        trace = self.trace
        if trace is not None and trace.active:
            trace.emit("hop", self.now, node=router.name,
                       flow=_flow_id(packet), ttl=packet.ttl, dst=packet.dst)

        # Inline middleboxes inspect after the decrement but before the
        # expiry check: a censored request never produces ICMP errors
        # from hops at or beyond the middlebox.
        inline = router.inline_middlebox
        if inline is not None:
            verdict = inline.process(packet, self.now, router)
            if verdict == DROP:
                self._drop(f"inline-drop:{router.name}", packet)
                return
            if verdict == CONSUMED:
                return
            if verdict != FORWARD:
                raise SimulationError(
                    f"middlebox on {router.name} returned bad verdict {verdict!r}"
                )

        if packet.ttl <= 0:
            if trace is not None and trace.active:
                trace.emit("ttl-exceeded", self.now, node=router.name,
                           flow=_flow_id(packet),
                           icmp=not router.anonymized)
            if not router.anonymized:
                reply = make_time_exceeded(router.ip, packet)
                self.transmit(router, reply)
            else:
                self._drop(f"ttl-anon:{router.name}", packet)
            return

        if router.owns_ip(packet.dst):
            # Routers terminate nothing in this model.
            self._drop("router-is-dst", packet)
            return

        self._dispatch(router, packet, True)

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------

    def drop_stats(self, *, collapse: bool = True) -> Dict[str, int]:
        """Structured view of all drops so far as ``reason -> count``.

        With ``collapse=True`` the per-hop suffix (``reason:a->b`` or
        ``reason:router``) is stripped so counters aggregate by cause —
        the form the CLI prints in verbose mode.  Served from the
        incremental counter maintained by :meth:`_drop` (it covers
        every drop, whether or not :attr:`drops` was armed), so the
        cost scales with distinct reasons, not total drops.
        """
        if not collapse:
            return dict(self._drop_counter)
        counts: Counter = Counter()
        for reason, count in self._drop_counter.items():
            if ":" in reason:
                reason = reason.split(":", 1)[0]
            counts[reason] += count
        return dict(counts)

    def inject_at(self, router: Router, packet: Packet) -> None:
        """Inject a (usually forged) packet into the network at *router*.

        Wiretap middleboxes use this to race their crafted responses
        against the genuine server reply.
        """
        trace = self.trace
        if trace is not None and trace.active:
            trace.emit("inject", self.now, node=router.name,
                       flow=_flow_id(packet), proto=packet.flow_key()[0],
                       src=packet.src)
        self.transmit(router, packet)
