"""Network substrate.

Implements the transport behaviour of Table 3 in the paper:

* unicast/multicast delivery with a uniform 10-100 microsecond delay
  (:class:`Network`),
* UDP: messages lost during interface outages are silently discarded
  (:meth:`Network.transmit_unicast`),
* redundant multicast (:meth:`Network.transmit_multicast` sends the copies
  it is asked for: 6 for every UPnP and Jini multicast, 1 for FRODO's except
  its Registry announcements, which go twice),
* TCP: connection set-up with the 6 s / 24 s / 24 s / 24 s retry schedule and
  a Remote Exception (REX) on failure; data transfer retransmitted until
  success with the retransmission time-out growing 25 % per retry
  (:func:`repro.net.tcp.send`),
* interface failure injection (transmitter and/or receiver outages).
"""

from repro.net.addressing import Address, MULTICAST_GROUP
from repro.net.messages import Message, MessageLayer
from repro.net.interfaces import NetworkInterface, Endpoint
from repro.net.stats import MessageStats
from repro.net.network import Network
from repro.net.tcp import RemoteException
from repro.net.failures import (
    InterfaceOutage,
    build_interface_failure_plan,
    FailureInjector,
)

__all__ = [
    "Address",
    "MULTICAST_GROUP",
    "Message",
    "MessageLayer",
    "NetworkInterface",
    "Endpoint",
    "MessageStats",
    "Network",
    "RemoteException",
    "InterfaceOutage",
    "build_interface_failure_plan",
    "FailureInjector",
]
