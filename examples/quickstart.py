#!/usr/bin/env python3
"""Quickstart: experience (and defeat) Indian web censorship in a box.

Builds a reduced-size simulated Internet containing the nine measured
ISPs, fetches a blocked site from inside Airtel like a stock browser
(receiving the injected block page), shows the wiretap middlebox's
forged packets on the wire, then bypasses the censorship with the
section-5 Host-keyword case fudge.

Run:  python examples/quickstart.py
"""

from repro.core.evasion import attempt_strategy, strategy
from repro.core.measure import canonical_payload, express_http_probe
from repro.core.vantage import VantagePoint
from repro.isps import build_world
from repro.middlebox import looks_like_block_page


def main() -> None:
    print("Building a small India-in-a-box (seed 1808, scale 0.2)...")
    world = build_world(seed=1808, scale=0.2)
    print(f"  {len(world.network.nodes)} nodes, "
          f"{len(world.corpus)} potentially-blocked websites, "
          f"{len(world.isps)} ISPs\n")

    vantage = VantagePoint.inside(world, "airtel")

    # Find a site that is actually censored on this client's paths.
    blocked_domain = None
    for candidate in sorted(world.blocklists.http["airtel"]):
        dst_ip = world.hosting.ip_for(candidate, "in")
        verdict = express_http_probe(world.network, vantage.host, dst_ip,
                                     canonical_payload(candidate))
        if verdict.censored:
            blocked_domain = candidate
            break
    assert blocked_domain is not None
    print(f"Fetching http://{blocked_domain}/ from inside Airtel...")

    # The host records packets only while a reader holds its capture
    # open, so arm it around the fetch whose wire we want to see.
    with vantage.host.capture.armed() as capture:
        result = vantage.fetch_domain(blocked_domain)
        response = result.first_response
        if response is not None and looks_like_block_page(response.body):
            print("  -> HTTP 200 OK ... but it is a censorship notification:")
            body_text = response.body.decode("latin-1")
            print(f"     {body_text[:110]}...")
            print(f"     (got FIN: {result.got_fin} — the injected packet "
                  f"tears the connection down)")
        else:
            print("  -> the wiretap box lost the race this time; "
                  "the real page rendered. Reload and it will usually lose.")

        print("\nWhat the wire shows (last packets from the 'server'):")
        for entry in capture.filter(direction="rx", tcp_only=True)[-4:]:
            print(f"  {entry.describe()[:100]}")

    print("\nNow evading with the Host-keyword case fudge "
          "(\"HOst:\" instead of \"Host:\")...")
    attempt = attempt_strategy(world, vantage, blocked_domain,
                               strategy("host-keyword-case"))
    print(f"  -> success={attempt.success} ({attempt.detail})")

    print("\nAnd with the client-side FIN/RST firewall "
          "(the IP-ID 242 iptables rule)...")
    attempt = attempt_strategy(world, vantage, blocked_domain,
                               strategy("drop-fin-rst"))
    print(f"  -> success={attempt.success} ({attempt.detail})")

    print("\nDone. See examples/measure_isp.py for the full "
          "measurement pipeline.")


if __name__ == "__main__":
    main()
