"""The benchmark (perfbench/) still finds every name it wraps or reads.

Only the tracer's ``install`` and ``uninstall`` run here, and the other scripts are
only parsed, with no timed work, so that a change which drops or renames a name the
benchmark relies on fails this suite, not just the benchmark.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"

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


# Attributes that the benchmark scripts read on modorder modules today.
READ_TODAY = {"homs.ModuleContext", "homs.generating_set", "orders.evaluate",
              "orders.revalidate", "rings.revalidate_ring", "rings.hartwig_minus_le",
              "modules.module_to_spec", "cli.parse_ring_arg", "cli.main", "laws.run_suite",
              "laws.relation_matrix"}


def _from_import(package: str, name: str):
    """What ``from package import name`` binds."""
    try:
        return importlib.import_module(f"{package}.{name}")
    except ModuleNotFoundError:
        return getattr(importlib.import_module(package), name)


def _imports(tree, source: str) -> dict[str, str]:
    """Local name -> imported name, for each ``from source import ...`` in the tree."""
    return {alias.asname or alias.name: alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == source
            for alias in node.names}


def test_benchmark_reads_only_names_that_exist():
    """Each perfbench script's ``from modorder... import`` names exist, and so does every
    attribute it reads on a modorder module it binds, directly or through workloads.py."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PERFBENCH.glob("*.py"))}
    reexported = _imports(trees["workloads.py"], "modorder")
    read = set()
    for file, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("modorder."):
                for alias in node.names:
                    assert hasattr(importlib.import_module(node.module), alias.name), \
                        f"{file}: {node.module}.{alias.name}"
        names = _imports(tree, "modorder") | {
            local: reexported[name] for local, name in _imports(tree, "workloads").items()
            if name in reexported}
        bound = {local: _from_import("modorder", name) for local, name in names.items()}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in bound):
                owner = names[node.value.id]
                assert hasattr(bound[node.value.id], node.attr), f"{file}: {owner}.{node.attr}"
                read.add(f"{owner}.{node.attr}")
    assert READ_TODAY <= read, READ_TODAY - read


def test_suites_record_every_span_the_benchmark_expects():
    """Each suite workload records a span for every entry point listed for it.  The
    products draw is all R_R, so its members are traced apart from the cyclic ones: a
    share that skipped homs.dual, homs.endo_ring or modules.cyclic_submodule for R_R would
    leave a span missing here, as in a traced benchmark run.  Every relation's matrix is
    spanned by its tag, so a law that read relation_matrix through a binding made before
    install (a module-level partial, say) would leave its tag out."""
    tracing = _load_tracing()
    mods = {m: importlib.import_module("modorder." + m) for m in tracing.MODULES}
    rings, modules = mods["rings"], mods["modules"]
    groups = {
        "suite-products": lambda: [
            modules.build_ring_as_module(rings.build_product(rings.build_zn(2),
                                                             rings.build_zn(3))),
            modules.build_ring_as_module(rings.build_matrix_ring(2))],
        "suite-cyclic": lambda: [modules.build_zm_over_zn(6, 30),
                                 modules.build_zm_over_zn(6, 6)],
    }
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for workload, members in groups.items():
            tracer.trace_id = workload
            mods["laws"].run_suite([mods["homs"].ModuleContext(M) for M in members()])
    finally:
        tracer.uninstall()
    for workload in groups:
        names = [rec[3] for rec in tracer.spans if rec[0] == workload]
        assert tracing.missing_spans(workload, names) == [], workload
    tags = {name.partition(":")[2] for _, _, _, name, *_ in tracer.spans
            if name.startswith("laws.relation_matrix:")}
    assert tags == {*mods["orders"].RELATIONS, "hartwig", "ring-annih"}
