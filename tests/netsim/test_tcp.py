"""TCP state machine edge cases."""

import pytest

from repro.netsim import (
    Network,
    TCPApp,
    TCPFlags,
    make_tcp_packet,
)
from repro.netsim.tcp import (
    CLOSE_WAIT,
    CLOSED,
    ESTABLISHED,
    FIN_WAIT_1,
    SYN_SENT,
    TIME_WAIT,
)


class Recorder(TCPApp):
    def __init__(self):
        self.events = []
        self.data = b""

    def on_connected(self, conn):
        self.events.append("connected")

    def on_data(self, conn, data):
        self.events.append("data")
        self.data += data

    def on_fin(self, conn):
        self.events.append("fin")

    def on_rst(self, conn):
        self.events.append("rst")

    def on_closed(self, conn, reason):
        self.events.append(f"closed:{reason}")


class EchoServer(TCPApp):
    def on_data(self, conn, data):
        conn.send(b"echo:" + data)


@pytest.fixture
def pair():
    net = Network()
    a = net.add_host("a", "10.0.0.1")
    b = net.add_host("b", "10.0.0.2")
    net.add_router("r", "10.0.0.254")
    net.link("a", "r")
    net.link("r", "b")
    return net, a, b


class TestHandshake:
    def test_connect_and_exchange(self, pair):
        net, a, b = pair
        b.stack.listen(80, EchoServer)
        app = Recorder()
        conn = a.stack.connect(b.ip, 80, app)
        net.run_until_idle()
        assert conn.state == ESTABLISHED
        conn.send(b"hello")
        net.run_until_idle()
        assert app.data == b"echo:hello"

    def test_connect_timeout_to_silent_host(self, pair):
        net, a, b = pair
        b.stack.send_rst_for_unknown = False
        app = Recorder()
        conn = a.stack.connect(b.ip, 9999, app)
        net.run_until_idle()
        assert conn.state == CLOSED
        assert "closed:timeout" in app.events

    def test_connect_refused_by_rst(self, pair):
        net, a, b = pair
        app = Recorder()
        conn = a.stack.connect(b.ip, 9999, app)
        net.run_until_idle()
        assert conn.state == CLOSED
        assert "rst" in app.events

    def test_cannot_send_before_established(self, pair):
        net, a, b = pair
        b.stack.listen(80, EchoServer)
        conn = a.stack.connect(b.ip, 80, Recorder())
        assert conn.state == SYN_SENT
        with pytest.raises(Exception):
            conn.send(b"too early")


class TestDataTransfer:
    def test_duplicate_segment_dropped_and_reacked(self, pair):
        net, a, b = pair
        server_app_holder = []

        class Server(TCPApp):
            def __init__(self):
                self.data = b""
                server_app_holder.append(self)

            def on_data(self, conn, data):
                self.data += data

        b.stack.listen(80, Server)
        conn = a.stack.connect(b.ip, 80, Recorder())
        net.run_until_idle()
        conn.send(b"once", advance=False)
        net.run_until_idle()
        conn.send(b"once", advance=True)  # same seq again
        net.run_until_idle()
        assert server_app_holder[0].data == b"once"

    def test_out_of_order_segment_dropped(self, pair):
        net, a, b = pair
        holder = []

        class Server(TCPApp):
            def __init__(self):
                self.data = b""
                holder.append(self)

            def on_data(self, conn, data):
                self.data += data

        b.stack.listen(80, Server)
        conn = a.stack.connect(b.ip, 80, Recorder())
        net.run_until_idle()
        # Skip ahead in sequence space: the peer must ignore it.
        conn.send_raw_flags(TCPFlags.ACK | TCPFlags.PSH,
                            seq=conn.snd_nxt + 500, payload=b"future")
        net.run_until_idle()
        assert holder[0].data == b""

    def test_segmented_send_arrives_in_order(self, pair):
        net, a, b = pair
        holder = []

        class Server(TCPApp):
            def __init__(self):
                self.data = b""
                holder.append(self)

            def on_data(self, conn, data):
                self.data += data

        b.stack.listen(80, Server)
        conn = a.stack.connect(b.ip, 80, Recorder())
        net.run_until_idle()
        conn.send(b"abcdefghij", segment_size=3)
        net.run_until_idle()
        assert holder[0].data == b"abcdefghij"


class TestTeardown:
    def test_clean_close_both_sides(self, pair):
        net, a, b = pair

        class ClosingServer(TCPApp):
            def on_fin(self, conn):
                conn.close()

        b.stack.listen(80, ClosingServer)
        app = Recorder()
        conn = a.stack.connect(b.ip, 80, app)
        net.run_until_idle()
        conn.close()
        assert conn.state == FIN_WAIT_1
        net.run_until_idle()
        assert conn.state == CLOSED

    def test_fin_moves_receiver_to_close_wait(self, pair):
        net, a, b = pair
        accepted = []

        class Server(TCPApp):
            def __init__(self):
                accepted.append(self)
                self.conn = None

            def on_connected(self, conn):
                self.conn = conn

        b.stack.listen(80, Server)
        conn = a.stack.connect(b.ip, 80, Recorder())
        net.run_until_idle()
        conn.close()
        net.run(until=net.now + 0.1)
        assert accepted[0].conn.state == CLOSE_WAIT

    def test_abort_sends_rst(self, pair):
        net, a, b = pair
        holder = []

        class Server(TCPApp):
            def __init__(self):
                holder.append(self)
                self.reset = False

            def on_rst(self, conn):
                self.reset = True

        b.stack.listen(80, Server)
        conn = a.stack.connect(b.ip, 80, Recorder())
        net.run_until_idle()
        conn.abort()
        net.run_until_idle()
        assert conn.state == CLOSED
        assert holder[0].reset

    def test_teardown_timeout_rsts_when_peer_vanishes(self, pair):
        net, a, b = pair
        b.stack.listen(80, EchoServer)
        app = Recorder()
        conn = a.stack.connect(b.ip, 80, app)
        net.run_until_idle()
        # Make the peer silent, then close: FIN is never ACKed.
        b.firewall = type("F", (), {"allows": lambda self, p: False})()
        conn.close()
        net.run_until_idle()
        assert conn.state == CLOSED
        assert "closed:teardown-timeout" in app.events

    def test_time_wait_expires(self, pair):
        net, a, b = pair

        class ServerInitiatesClose(TCPApp):
            def on_connected(self, conn):
                conn.close()

        b.stack.listen(80, ServerInitiatesClose)
        app = Recorder()
        conn = a.stack.connect(b.ip, 80, app)
        net.run(until=net.now + 0.05)
        # Client got FIN; close from CLOSE_WAIT side.
        if conn.state == CLOSE_WAIT:
            conn.close()
        net.run_until_idle()
        assert conn.state == CLOSED


class TestInjectionAcceptance:
    def test_forged_segment_with_correct_seq_accepted(self, pair):
        """The attack the middleboxes rely on: correct seq/ack = real."""
        net, a, b = pair
        b.stack.listen(80, EchoServer)
        app = Recorder()
        conn = a.stack.connect(b.ip, 80, app)
        net.run_until_idle()
        forged = make_tcp_packet(
            b.ip, a.ip, 80, conn.local_port,
            seq=conn.rcv_nxt, ack=conn.snd_nxt,
            flags=TCPFlags.ACK | TCPFlags.PSH, payload=b"forged!")
        a.deliver(forged, net.now)
        assert app.data == b"forged!"

    def test_forged_rst_outside_window_ignored(self, pair):
        net, a, b = pair
        b.stack.listen(80, EchoServer)
        app = Recorder()
        conn = a.stack.connect(b.ip, 80, app)
        net.run_until_idle()
        stale = make_tcp_packet(
            b.ip, a.ip, 80, conn.local_port,
            seq=conn.rcv_nxt - 10_000, flags=TCPFlags.RST)
        a.deliver(stale, net.now)
        assert conn.state == ESTABLISHED

    def test_data_to_closed_connection_draws_rst(self, pair, armed):
        net, a, b = pair
        armed(a)
        b.stack.listen(80, EchoServer)
        conn = a.stack.connect(b.ip, 80, Recorder())
        net.run_until_idle()
        conn.abort()
        net.run_until_idle()
        a.capture.clear()
        late = make_tcp_packet(
            b.ip, a.ip, 80, conn.local_port,
            seq=1, ack=1, flags=TCPFlags.ACK | TCPFlags.PSH,
            payload=b"late data")
        a.deliver(late, net.now)
        rsts = a.capture.filter(direction="tx", with_flag=TCPFlags.RST)
        assert rsts


class TestListeners:
    def test_duplicate_listen_rejected(self, pair):
        net, a, b = pair
        b.stack.listen(80, EchoServer)
        with pytest.raises(Exception):
            b.stack.listen(80, EchoServer)

    def test_multiple_concurrent_connections(self, pair):
        net, a, b = pair
        b.stack.listen(80, EchoServer)
        apps = [Recorder() for _ in range(5)]
        conns = [a.stack.connect(b.ip, 80, app) for app in apps]
        net.run_until_idle()
        for index, conn in enumerate(conns):
            conn.send(f"msg{index}".encode())
        net.run_until_idle()
        for index, app in enumerate(apps):
            assert app.data == f"echo:msg{index}".encode()


def echo_exchange(net, a, b, payload):
    """Open a connection to b's echo service, send *payload*, return
    the reply."""
    app = Recorder()
    conn = a.stack.connect(b.ip, 80, app)
    net.run_until_idle()
    conn.send(payload)
    net.run_until_idle()
    return app.data


class TestObservers:
    """Observers that outlive a delivery keep exactly what they saw."""

    def test_capture_snapshots_unchanged_by_later_traffic(self, pair, armed):
        net, a, b = pair
        armed(b)
        b.stack.listen(80, EchoServer)
        assert echo_exchange(net, a, b, b"FIRST") == b"echo:FIRST"
        before = [(entry.describe(), entry.packet.tcp.payload)
                  for entry in b.capture if entry.packet.is_tcp]
        assert any(payload == b"FIRST" for _, payload in before)
        for i in range(5):
            echo_exchange(net, a, b, b"noise-%d" % i)
        after = [(entry.describe(), entry.packet.tcp.payload)
                 for entry in b.capture if entry.packet.is_tcp]
        assert after[:len(before)] == before

    def test_packets_a_sniffer_keeps_stay_intact(self, pair):
        net, a, b = pair
        b.stack.listen(80, EchoServer)
        kept = []
        b.add_sniffer(lambda now, packet: kept.append(packet))
        echo_exchange(net, a, b, b"SNIFFED")
        snapshot = [packet.describe() for packet in kept]
        assert any(packet.is_tcp and packet.tcp.payload == b"SNIFFED"
                   for packet in kept)
        for i in range(5):
            echo_exchange(net, a, b, b"churn-%d" % i)
        assert [packet.describe() for packet in kept[:len(snapshot)]] \
            == snapshot
