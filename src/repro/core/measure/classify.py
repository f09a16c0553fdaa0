"""Middlebox family classification — the section 4.2.1 methodology.

The decisive experiment uses a *controlled remote server*: connect to a
host we own outside the ISP, send a GET whose Host names a censored
domain, and compare what the client sees against what the server's own
capture shows:

* **wiretap** — the server received the GET (it only got a copy-based
  injection racing it); the client may even render content on retries;
* **interceptive** — the server never saw the GET, received a forged
  RST whose sequence number the client never sent, and every
  client-side retry failed; subsequent client packets were blackholed.

Classification also records overt vs covert (notification page vs bare
reset) and the Airtel IP-ID tell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

from ...netsim.packets import TCPFlags
from ..vantage import VantagePoint
from .probes import CraftedFlow


@dataclass
class MiddleboxClassification:
    """What the controlled-server experiment established."""

    isp: str
    blocked_domain: str = ""
    censorship_observed: bool = False
    attempts: int = 0
    censored_attempts: int = 0
    server_saw_request: bool = False
    server_got_foreign_rst: bool = False
    notification_seen: bool = False
    bare_rst_only: bool = False
    rendered_despite_censorship: int = 0
    injected_ip_ids: Set[int] = field(default_factory=set)

    @property
    def kind(self) -> Optional[str]:
        if not self.censorship_observed:
            return None
        return "wiretap" if self.server_saw_request else "interceptive"

    @property
    def overt(self) -> Optional[bool]:
        if not self.censorship_observed:
            return None
        return self.notification_seen

    @property
    def fixed_ip_id(self) -> Optional[int]:
        """A constant IP-ID across every injected packet, if any."""
        if self.censored_attempts >= 2 and len(self.injected_ip_ids) == 1:
            return next(iter(self.injected_ip_ids))
        return None


def find_controlled_target(world, isp_name: str, candidates: List[str]):
    """Pick a (controlled server, blocked domain) pair whose path from
    the ISP client crosses a censoring box.

    The paper's array of controlled hosts exists precisely because one
    server's path may dodge every middlebox; express probing finds a
    productive pairing quickly.
    """
    from .fastprobe import canonical_payload, express_http_probe

    client = world.client_of(isp_name)
    for server in world.remote_servers:
        for domain in candidates:
            verdict = express_http_probe(
                world.network, client, server.ip,
                canonical_payload(domain))
            if verdict.censored:
                return server, domain
    return None, None


def classify_middlebox(
    world,
    isp_name: str,
    blocked_domain: str,
    *,
    attempts: int = 10,
    server_host=None,
) -> MiddleboxClassification:
    """Run the controlled-remote-server experiment from *isp_name*.

    The client's and the server's captures are armed for the whole
    call, so every capture read below sees this classification's
    packets and none of the traffic the world carried before it.
    """
    vantage = VantagePoint.inside(world, isp_name)
    client = vantage.host
    if server_host is None:
        server_host = world.remote_server
    result = MiddleboxClassification(isp=isp_name,
                                     blocked_domain=blocked_domain)
    with client.capture.armed(), server_host.capture.armed():
        for _ in range(attempts):
            result.attempts += 1
            capture_mark = len(server_host.capture)
            client_mark = len(client.capture)
            flow = CraftedFlow(world, client, server_host.ip)
            if not flow.open():
                continue
            client_seqs_before = _client_tx_seqs(client, server_host.ip)
            observation = flow.probe_and_observe(blocked_domain, duration=1.2)
            world.network.run(until=world.network.now + 2.5)
            flow.close()

            if observation.censored:
                result.censorship_observed = True
                result.censored_attempts += 1
                if observation.notification:
                    result.notification_seen = True
                elif observation.rst_from_target:
                    result.bare_rst_only = True
                result.injected_ip_ids |= _injected_ip_ids(
                    client, server_host.ip, client_mark)
                if _server_saw_payload(server_host, capture_mark,
                                       client.ip, blocked_domain):
                    result.server_saw_request = True
                if _server_got_foreign_rst(server_host, capture_mark,
                                           client, client_seqs_before):
                    result.server_got_foreign_rst = True
            elif observation.real_content or observation.payload_bytes:
                result.rendered_despite_censorship += 1
    return result


def find_triggering_domain(
    world,
    isp_name: str,
    candidates: List[str],
    *,
    dst_ip: Optional[str] = None,
    attempts_per_domain: int = 3,
    limit: int = 40,
) -> Optional[str]:
    """Probe candidate domains until one draws censorship on the path
    to *dst_ip* (default: the controlled remote server)."""
    vantage = VantagePoint.inside(world, isp_name)
    if dst_ip is None:
        dst_ip = world.remote_server.ip
    for domain in candidates[:limit]:
        for _ in range(attempts_per_domain):
            flow = CraftedFlow(world, vantage.host, dst_ip)
            if not flow.open():
                continue
            observation = flow.probe_and_observe(domain, duration=1.0)
            flow.close()
            world.network.run(until=world.network.now + 0.5)
            if observation.censored:
                return domain
    return None


@dataclass
class BehaviouralClassification:
    """Client-side-only classification (no controlled server needed).

    The discriminating observation: a wiretap box cannot stop the
    genuine response — its bytes still reach the client's wire (the
    connection just died first), and retries sometimes render the page
    outright.  An interceptive box consumes the request, so no genuine
    content ever appears.
    """

    isp: str
    blocked_domain: str = ""
    attempts: int = 0
    censored_attempts: int = 0
    rendered_attempts: int = 0
    genuine_content_seen: bool = False
    notification_seen: bool = False
    bare_rst_only: bool = False

    @property
    def kind(self) -> Optional[str]:
        if self.censored_attempts == 0:
            return None
        if self.genuine_content_seen or self.rendered_attempts:
            return "wiretap"
        return "interceptive"

    @property
    def overt(self) -> Optional[bool]:
        if self.censored_attempts == 0:
            return None
        return self.notification_seen


def classify_by_behaviour(
    world,
    isp_name: str,
    blocked_domain: str,
    dst_ip: str,
    *,
    attempts: int = 10,
) -> BehaviouralClassification:
    """Classify the box on the path to *dst_ip* from the client alone."""
    from .probes import CraftedFlow

    vantage = VantagePoint.inside(world, isp_name)
    result = BehaviouralClassification(isp=isp_name,
                                       blocked_domain=blocked_domain)
    for _ in range(attempts):
        result.attempts += 1
        flow = CraftedFlow(world, vantage.host, dst_ip)
        if not flow.open():
            continue
        observation = flow.probe_and_observe(blocked_domain, duration=2.6)
        flow.close()
        if observation.censored:
            result.censored_attempts += 1
            if observation.notification:
                result.notification_seen = True
            elif observation.rst_from_target:
                result.bare_rst_only = True
            if observation.real_content:
                result.genuine_content_seen = True
        elif observation.real_content:
            result.rendered_attempts += 1
    return result


# ---------------------------------------------------------------------------
# Capture analysis helpers
# ---------------------------------------------------------------------------

def _client_tx_seqs(client, server_ip: str) -> Set[int]:
    return {
        entry.packet.tcp.seq
        for entry in client.capture.filter(direction="tx", dst=server_ip,
                                           tcp_only=True)
    }


def _server_saw_payload(server_host, mark: int, client_ip: str,
                        domain: str) -> bool:
    needle = domain.encode("latin-1")
    for entry in server_host.capture.entries[mark:]:
        packet = entry.packet
        if (entry.direction == "rx" and packet.is_tcp
                and packet.src == client_ip
                and needle in packet.tcp.payload):
            return True
    return False


def _server_got_foreign_rst(server_host, mark: int, client,
                            seqs_before: Set[int]) -> bool:
    client_seqs = seqs_before | _client_tx_seqs(client, server_host.ip)
    for entry in server_host.capture.entries[mark:]:
        packet = entry.packet
        if (entry.direction == "rx" and packet.is_tcp
                and packet.src == client.ip
                and packet.tcp.has(TCPFlags.RST)
                and packet.tcp.seq not in client_seqs):
            return True
    return False


def _injected_ip_ids(client, server_ip: str, mark: int) -> Set[int]:
    """IP-IDs of the injected censorship packets in one attempt.

    The notification is identified by its block-page payload; the
    follow-up bare RST is attributed to the injector when it shares the
    notification's IP-ID (the Airtel 242 pattern) — genuine server
    FIN/RSTs keep their own rolling IDs and are excluded.
    """
    from ...middlebox.notification import looks_like_block_page

    page_ids: Set[int] = set()
    rst_ids: Set[int] = set()
    for entry in client.capture.entries[mark:]:
        packet = entry.packet
        if (entry.direction != "rx" or not packet.is_tcp
                or packet.src != server_ip):
            continue
        segment = packet.tcp
        if segment.payload and looks_like_block_page(segment.payload):
            page_ids.add(packet.ip_id)
        elif segment.has(TCPFlags.RST) and not segment.payload:
            rst_ids.add(packet.ip_id)
    return page_ids | (rst_ids & page_ids)
