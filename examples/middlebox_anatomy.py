#!/usr/bin/env python3
"""Packet-level anatomy of the two middlebox families (Figures 3 & 4).

Builds one minimal path per middlebox family, fetches a blocked site
through each, and prints the annotated packet exchange — the
interceptive box's consumed request and forged server-side RST, and
the wiretap box's injected notification racing the genuine response.

Run:  python examples/middlebox_anatomy.py
"""

from repro.httpsim import OriginServer, fetch_url, make_response
from repro.middlebox import (
    InterceptiveMiddlebox,
    TriggerSpec,
    WiretapMiddlebox,
    profile_for,
)
from repro.netsim import Network

BLOCKED = "blocked.example"
BODY = (b"<html><head><title>Forbidden Fruit</title></head>"
        b"<body>the real content of the censored site</body></html>")


def build_path(tag: str):
    net = Network()
    client = net.add_host(f"client-{tag}", "10.0.0.1")
    server_host = net.add_host(f"web-{tag}", "93.184.216.34")
    for index in (1, 2, 3):
        net.add_router(f"{tag}-r{index}", f"10.1.0.{index}")
    net.link(f"client-{tag}", f"{tag}-r1")
    net.link(f"{tag}-r1", f"{tag}-r2")
    net.link(f"{tag}-r2", f"{tag}-r3")
    net.link(f"{tag}-r3", f"web-{tag}")
    server = OriginServer()
    server.add_domain(BLOCKED, lambda req, ip: make_response(200, BODY))
    server.install(server_host)
    return net, client, server_host


def annotate(entry, client_ip, server_ip):
    packet = entry.packet
    who = "client" if entry.node.startswith("client") else "server"
    line = f"  t={entry.time * 1000:7.2f}ms  {who:6s} "
    line += "recv " if entry.direction == "rx" else "send "
    line += packet.describe()[:95]
    if packet.is_tcp and packet.tcp.payload:
        payload = packet.tcp.payload
        if b"GET" in payload[:10]:
            line += "   <- the HTTP GET"
        elif b"blocked as per directions" in payload \
                or b"Government" in payload:
            line += "   <- CENSORSHIP NOTIFICATION (forged source!)"
        elif b"Forbidden Fruit" in payload:
            line += "   <- the genuine response"
    return line


def show_exchange(title, net, client, server_host, attach):
    print(f"\n{'=' * 78}\n{title}\n{'=' * 78}")
    attach(net)
    # Hosts record packets only while a reader holds their captures open.
    with client.capture.armed(), server_host.capture.armed():
        result = fetch_url(net, client, server_host.ip, BLOCKED)
        net.run_until_idle()
        entries = sorted(
            list(client.capture) + list(server_host.capture),
            key=lambda e: (e.time, e.direction == "tx"))
    print("\nClient + server wire view:")
    for entry in entries:
        print(annotate(entry, client.ip, server_host.ip))
    response = result.first_response
    outcome = "?"
    if response is not None:
        outcome = ("block page" if b"Forbidden" not in response.body
                   else "REAL CONTENT")
    elif result.got_rst:
        outcome = "bare reset (covert censorship)"
    print(f"\nWhat the browser saw: {outcome}")


def main() -> None:
    spec = TriggerSpec(blocklist=frozenset({BLOCKED}))

    net, client, server_host = build_path("im")
    show_exchange(
        "INTERCEPTIVE middlebox (Figure 3) — in-path, consumes the "
        "request,\nforges a server-side RST; the origin never sees the GET",
        net, client, server_host,
        lambda n: n.node("im-r2").attach_inline(
            InterceptiveMiddlebox("im", "idea", spec,
                                  notification=profile_for("idea"))))

    net, client, server_host = build_path("wm")
    show_exchange(
        "WIRETAP middlebox (Figure 4) — out-of-band, injects a forged "
        "FIN\nnotification + RST racing the genuine response "
        "(which still arrives, too late)",
        net, client, server_host,
        lambda n: n.node("wm-r2").attach_tap(
            WiretapMiddlebox("wm", "airtel", spec, profile_for("airtel"),
                             fixed_ip_id=242)))

    print("\nNotice on the wiretap trace: the genuine response arrives "
          "after the forged\nFIN killed the connection, and every "
          "injected packet carries IP-ID 242.")


if __name__ == "__main__":
    main()
