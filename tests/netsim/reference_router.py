"""The seed ECMP router, kept as a test-only reference oracle.

:class:`repro.netsim.Network` routes over cached per-destination
forwarding tables built from its own heapq Dijkstra.  This module is
what that must agree with: networkx shortest-path distances, with the
equal-cost candidate set and the flow hash recomputed on every call.
Only the distance maps are memoized, once per destination.

A :class:`ReferenceRouter` copies the topology when it is built and
reads addresses live; build a new one after changing links or nodes.
"""

from typing import Dict, List, Optional

import networkx as nx

from repro.netsim.devices import Node, Router
from repro.netsim.engine import Network, _ecmp_hash
from repro.netsim.errors import RoutingError


class ReferenceRouter:
    """Uncached seed routing over a networkx copy of *network*."""

    def __init__(self, network: Network) -> None:
        self.network = network
        self.graph = nx.Graph()
        self.graph.add_nodes_from(network.adjacency)
        for a, neighbours in network.adjacency.items():
            for b, delay in neighbours.items():
                self.graph.add_edge(a, b, delay=delay)
        self._distances: Dict[str, Dict[str, float]] = {}

    def distances_to(self, dst_name: str) -> Dict[str, float]:
        """networkx's delay from every node to *dst_name*."""
        dist = self._distances.get(dst_name)
        if dist is None:
            dist = nx.single_source_dijkstra_path_length(
                self.graph, dst_name, weight="delay")
            self._distances[dst_name] = dist
        return dist

    def _ecmp_candidates(self, node_name: str, dist: Dict[str, float]
                         ) -> List[str]:
        best_cost = None
        candidates: List[str] = []
        for neighbor in self.graph.neighbors(node_name):
            neighbor_dist = dist.get(neighbor)
            if neighbor_dist is None:
                continue
            cost = (self.graph.edges[node_name, neighbor]["delay"]
                    + neighbor_dist)
            if best_cost is None or cost < best_cost - 1e-12:
                best_cost = cost
                candidates = [neighbor]
            elif abs(cost - best_cost) <= 1e-12:
                candidates.append(neighbor)
        candidates.sort()
        return candidates

    def next_hop(self, from_node: Node, dst_ip: str,
                 src_ip: Optional[str] = None) -> Optional[Node]:
        owner = self.network.ip_owner.get(dst_ip)
        if owner is None or owner is from_node:
            return None
        dist = self.distances_to(owner.name)
        if dist.get(from_node.name) is None:
            return None
        candidates = self._ecmp_candidates(from_node.name, dist)
        if not candidates:
            return None
        choice = _ecmp_hash(src_ip, dst_ip, from_node.name) % len(candidates)
        return self.network.nodes[candidates[choice]]

    def path_to(self, from_node: Node, dst_ip: str,
                src_ip: Optional[str] = None) -> List[Node]:
        if src_ip is None and from_node.ips:
            src_ip = from_node.ip
        owner = self.network.ip_owner.get(dst_ip)
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

    def boxes_along(self, client: Node, dst_ip: str,
                    client_ip: str) -> List[tuple]:
        """``(hop, box)`` for every tap and inline box on the path."""
        try:
            path = self.path_to(client, dst_ip, src_ip=client_ip)
        except RoutingError:
            return []
        found = []
        for hop, node in enumerate(path[1:], start=1):
            if isinstance(node, Router):
                found.extend((hop, box) for box in node.taps)
                if node.inline_middlebox is not None:
                    found.append((hop, node.inline_middlebox))
        return found
