"""The benchmark's span tracer (perfbench/tracing.py) still finds every name it wraps.

Only ``install`` and ``uninstall`` run here, with no timed work, so that a change
which drops or renames a traced entry point fails this suite, not just the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# Names that modules bind with ``from .x import f``; the tracer must rebind each one.
IMPORTED = (("orders", "cyclic_submodule"), ("hasse", "relation_matrix"),
            ("hasse", "check_partial_order"))


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracing = _load_tracing()
    mods = {m: importlib.import_module("modorder." + m) for m in tracing.MODULES}
    for mod, attr, _, _ in tracing.ENTRY_POINTS:
        assert callable(getattr(mods[mod], attr, None)), f"{mod}.{attr}"
    relations = dict(mods["orders"].RELATIONS)
    for attr in tracing.RELATION_FUNCTIONS:
        assert getattr(mods["orders"], attr, None) in relations.values(), attr
    before = {(mod, attr): getattr(mods[mod], attr) for mod, attr in IMPORTED}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for mod, attr in IMPORTED:
            assert getattr(mods[mod], attr).__wrapped__ is before[mod, attr]
        assert all(mods["orders"].RELATIONS[tag] is not rel for tag, rel in relations.items())
    finally:
        tracer.uninstall()
    assert all(getattr(mods[mod], attr) is fn for (mod, attr), fn in before.items())
    assert mods["orders"].RELATIONS == relations
    assert tracer.spans == [] and tracer.queries == 0
