"""Real-topology scenario layer: file loaders and geo-region factories.

ROADMAP item 3's substrate story: instead of the synthetic line/bus/
star/mesh factories, build :class:`~repro.network.topology.
ServerNetwork`s from the shapes real evaluations use --

* :mod:`repro.scenarios.loader` -- :func:`load_topology` for
  SNDlib-style text files (and repro JSON network documents), plus the
  bundled Abilene backbone fixture (:func:`abilene_network`);
* :mod:`repro.scenarios.geo` -- seeded geo-distributed cloud-region
  fleets built from an inter-region latency matrix
  (:func:`geo_network` / :func:`random_geo_network`).

Everything here produces *heterogeneous* networks -- per-link speeds
and propagation delays -- which the routing stack treats as the general
case end to end (see :mod:`repro.network.routing`). A link change at
runtime recompiles the whole route table
(:meth:`repro.core.compiled.CompiledInstance.invalidate_routes`). The
fleet-facing scenario *packs* that replay dynamic events over these
substrates live in :mod:`repro.service.scenarios`.
"""

from repro.scenarios.geo import (
    GEO_REGIONS,
    REGION_LATENCY_MS,
    geo_network,
    random_geo_network,
    region_of,
    region_servers,
)
from repro.scenarios.loader import (
    SIGNAL_SPEED_M_PER_S,
    abilene_network,
    load_topology,
    parse_topology,
)

__all__ = [
    "GEO_REGIONS",
    "REGION_LATENCY_MS",
    "SIGNAL_SPEED_M_PER_S",
    "abilene_network",
    "geo_network",
    "load_topology",
    "parse_topology",
    "random_geo_network",
    "region_of",
    "region_servers",
]
