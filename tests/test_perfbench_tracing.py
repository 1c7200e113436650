"""The benchmark's tracer must find every entry point it wraps.

``perfbench/tracing.py`` patches ``repro`` methods by name from outside
the package. Deleting or renaming one of them breaks the benchmark run
with a ``KeyError``; this test catches that in the tier-1 suite instead,
and checks that uninstalling puts every original back.
"""

from __future__ import annotations

import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_and_uninstall_restores_every_entry_point():
    from repro.core.incremental import MoveEvaluator

    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        patched = list(tracer._patched)
        originals: dict[tuple[object, str], object] = {}
        for owner, attr, original in patched:
            originals.setdefault((owner, attr), original)
        assert patched
        for (owner, attr), original in originals.items():
            assert owner.__dict__[attr] is not original, attr
        wrapped = {attr for owner, attr in originals if owner is MoveEvaluator}
        assert wrapped == {"propose", "propose_value", "commit", "resync"}
    finally:
        tracer.uninstall()
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original, attr
