"""Exception hierarchy for the network simulator.

Every error raised by :mod:`repro.netsim` derives from :class:`NetSimError`
so callers can catch simulator failures without masking programming errors.
"""

from __future__ import annotations


class NetSimError(Exception):
    """Base class for all network-simulator errors."""


class AddressError(NetSimError):
    """An IPv4 address or prefix was malformed or out of range."""


class UnknownNodeError(NetSimError):
    """A node name or IP address does not exist in the topology."""


class RoutingError(NetSimError):
    """No route exists between two nodes."""


class PortInUseError(NetSimError):
    """A host tried to bind a TCP/UDP port that is already bound."""


class ConnectionError_(NetSimError):
    """A TCP operation was attempted on a connection in the wrong state.

    Named with a trailing underscore to avoid shadowing the built-in
    :class:`ConnectionError`.
    """


class SimulationError(NetSimError):
    """The discrete-event engine reached an inconsistent state."""


class EventLimitExceeded(Exception):
    """A network processed more events than its ``event_limit`` allows.

    Raised after the event that takes :attr:`Network.events_processed
    <repro.netsim.engine.Network.events_processed>` past the limit has
    run.  Deliberately not a :class:`NetSimError`: measurement code
    that survives simulator failures site by site must not swallow a
    spent budget, which ends the whole campaign unit.
    """

    def __init__(self, limit: int) -> None:
        super().__init__(f"exceeded {limit} simulated events")
        self.limit = limit
