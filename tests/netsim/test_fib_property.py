"""Property: the FIB fast path is the seed routing, byte for byte.

For random topologies and address pairs, every distance map the engine
builds must equal networkx's exactly, and cached ``next_hop`` /
``path_to`` must return exactly what the seed router in
``reference_router.py`` returns — including ``RoutingError``s, after
``add_node`` / ``link`` invalidation and with a fault plan installed
(faults drop packets on links; they never change routing).
"""

from hypothesis import given, settings, strategies as st

from repro.netsim import Network
from repro.netsim.engine import dijkstra_distances
from repro.netsim.errors import RoutingError
from repro.netsim.faults import FaultPlan

from .reference_router import ReferenceRouter

#: A few distinct delays so equal-cost sets are common but not total.
DELAYS = (0.001, 0.005, 0.02)


@st.composite
def topology_specs(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    host_flags = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    chain_delays = draw(st.lists(st.sampled_from(DELAYS),
                                 min_size=n - 1, max_size=n - 1))
    extra = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                  st.sampled_from(DELAYS)),
        max_size=10))
    return n, host_flags, chain_delays, extra


def build(spec) -> Network:
    n, host_flags, chain_delays, extra = spec
    net = Network()
    for i in range(n):
        if host_flags[i]:
            net.add_host(f"n{i}", f"10.0.{i}.1")
        else:
            net.add_router(f"n{i}", f"10.0.{i}.1")
    # A spanning chain keeps everything connected; extra links create
    # the equal-cost diversity ECMP actually exercises, and a repeated
    # pair re-links an existing edge with a new delay.
    for i in range(n - 1):
        net.link(f"n{i}", f"n{i + 1}", delay=chain_delays[i])
    for a, b, delay in extra:
        if a != b:
            net.link(f"n{a}", f"n{b}", delay=delay)
    return net


def _path(router, node, dst_ip):
    try:
        return router.path_to(node, dst_ip)
    except RoutingError as exc:
        return ("error", str(exc))


def assert_distances_equal(net: Network, oracle: ReferenceRouter) -> None:
    for name in net.nodes:
        assert dijkstra_distances(net.adjacency, name) == \
            oracle.distances_to(name), f"distances to {name}"


def assert_routing_equivalent(net: Network) -> None:
    oracle = ReferenceRouter(net)
    assert_distances_equal(net, oracle)
    addresses = list(net.ip_owner)
    src_ips = [None] + addresses[:2]
    for name, node in net.nodes.items():
        for dst_ip in addresses:
            for src_ip in src_ips:
                fast = net.next_hop(node, dst_ip, src_ip)
                slow = oracle.next_hop(node, dst_ip, src_ip)
                assert fast is slow, (
                    f"next_hop({name}, {dst_ip}, {src_ip}): "
                    f"fib={fast} seed={slow}")
            # Twice: the second call exercises the cache-hit path.
            assert _path(net, node, dst_ip) == _path(net, node, dst_ip) \
                == _path(oracle, node, dst_ip)


class TestFIBEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(topology_specs())
    def test_matches_seed_implementation(self, spec):
        net = build(spec)
        assert_routing_equivalent(net)

    @settings(max_examples=15, deadline=None)
    @given(topology_specs(), st.integers(0, 7), st.sampled_from(DELAYS))
    def test_matches_after_invalidation(self, spec, attach_at, delay):
        net = build(spec)
        assert_routing_equivalent(net)  # warm every cache first
        n = spec[0]
        net.add_host("late", "10.9.0.1")
        net.link("late", f"n{attach_at % n}", delay=delay)
        assert_routing_equivalent(net)

    @settings(max_examples=10, deadline=None)
    @given(topology_specs(), st.integers(1, 1000))
    def test_matches_under_fault_plan(self, spec, fault_seed):
        net = build(spec)
        net.install_faults(FaultPlan.uniform_loss(0.3, seed=fault_seed))
        assert_routing_equivalent(net)


def test_world_distance_maps_match_networkx(small_world):
    """Every destination of a built world, not just small topologies."""
    net = small_world.network
    assert_distances_equal(net, ReferenceRouter(net))
