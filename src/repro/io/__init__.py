"""Serialization: JSON round-trips and Graphviz DOT export.

* :mod:`repro.io.json_codec` -- lossless JSON encode/decode for
  workflows, server networks and deployments, so problem instances and
  solutions can be stored, diffed and shipped between tools (including
  the :mod:`repro.cli` command line).
* :mod:`repro.io.dot` -- Graphviz DOT text for workflows (decision nodes
  shaped by kind, edges weighted by message size), networks, and
  deployments (operations clustered by server).
* :mod:`repro.io.text` -- aligned plain-text tables and human-scaled
  seconds for terminal output.
"""

from repro.io.json_codec import (
    workflow_to_dict,
    workflow_from_dict,
    network_to_dict,
    network_from_dict,
    deployment_to_dict,
    deployment_from_dict,
    dump_instance,
    load_instance,
    dump_document,
    load_document,
)
from repro.io.dot import workflow_to_dot, network_to_dot, deployment_to_dot

__all__ = [
    "workflow_to_dict",
    "workflow_from_dict",
    "network_to_dict",
    "network_from_dict",
    "deployment_to_dict",
    "deployment_from_dict",
    "dump_instance",
    "load_instance",
    "dump_document",
    "load_document",
    "workflow_to_dot",
    "network_to_dot",
    "deployment_to_dot",
]
