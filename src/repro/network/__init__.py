"""Server-network model: topologies ``N(S, L)`` and message routing.

* :mod:`repro.network.topology` -- servers, links, and factory functions
  for the topologies the paper studies (line, bus) plus extras useful for
  extensions (star, ring, full mesh, random).
* :mod:`repro.network.routing` -- shortest-time routing of messages
  between servers, with caching.
"""

from repro.network.topology import (
    Server,
    Link,
    ServerNetwork,
    line_network,
    bus_network,
    star_network,
    ring_network,
    random_network,
    full_mesh_network,
    remove_server,
)
from repro.network.routing import Router

__all__ = [
    "Server",
    "Link",
    "ServerNetwork",
    "line_network",
    "bus_network",
    "star_network",
    "ring_network",
    "random_network",
    "full_mesh_network",
    "remove_server",
    "Router",
]
