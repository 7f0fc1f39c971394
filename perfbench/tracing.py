"""Span tracer that wraps modorder's public entry points from outside.

Nothing under ``src/`` knows about it.  ``Tracer.install`` rebinds every
module-level name (and every ``orders.RELATIONS`` entry) that refers to a
wrapped function, so calls made through ``from .x import f`` bindings are
traced too.  Spans stay in memory as lists
``[trace_id, span_id, parent_id, name, start, end, info]`` whose span id is
their index in ``Tracer.spans``.
"""

from __future__ import annotations

import functools
import importlib
import time

MODULES = ("rings", "modules", "homs", "orders", "laws", "hasse", "cli")

# The twelve module-level relations are counted (queries, holds) but not
# spanned: a matrix makes n^2 calls and its own span already times them.
RELATION_FUNCTIONS = (
    "minus_le_dual", "minus_le_idem", "minus_le_relaxed", "minus_le_image",
    "jones_le", "mitsch_le", "mitsch_le_sym", "corollary_gb_le", "direct_sum_le",
    "right_star_le", "left_star_le", "star_le",
)

# Names bound by ``from .x import f``; install() fails unless each is wrapped.
IMPORTED_BINDINGS = (("orders", "cyclic_submodule"), ("hasse", "relation_matrix"),
                     ("hasse", "check_partial_order"))

ALL = ("cli", "suite-cyclic", "suite-products")


def _hom_info(args, result):
    return (args[0], args[1].size, len(result))


def _suite_info(args, result):
    return [(r.outcome, r.checks) for r in result]


def _covers_info(args, result):
    return len(result)


# (module, function, info(args, result) or None, workloads that call it).
# The span name is "module.function"; relation_matrix spans append ":<tag>".
# A traced run fails when an entry point records no span on a workload
# listed for it, so a binding that install() missed cannot go unnoticed.
ENTRY_POINTS = (
    ("rings", "build_zn", None, ALL),
    ("rings", "build_product", None, ("cli", "suite-products")),
    ("rings", "build_matrix_ring", None, ("cli", "suite-products")),
    ("rings", "build_ring_from_tables", None, ("cli",)),
    ("rings", "ring_from_spec", None, ("cli",)),
    ("modules", "build_zm_over_zn", None, ("cli", "suite-cyclic")),
    ("modules", "build_ring_as_module", None, ALL),
    ("modules", "build_module_from_tables", None, ("cli",)),
    ("modules", "module_from_spec", None, ("cli",)),
    ("modules", "cyclic_submodule", None, ALL),
    ("homs", "hom_group", _hom_info, ALL),
    ("homs", "dual", None, ALL),
    ("homs", "endo_ring", None, ALL),
    ("orders", "is_regular_module", None, ALL),
    ("orders", "regular_set", None, ALL),
    ("laws", "relation_matrix", None, ALL),
    ("laws", "check_partial_order", None, ALL),
    ("laws", "check_equivalence", None, ALL),
    ("laws", "check_unit_invariance", None, ALL),
    ("laws", "check_annihilator_monotone", None, ALL),
    ("laws", "check_subset_cyclic", None, ALL),
    ("laws", "check_witness_constructions", None, ALL),
    ("laws", "check_ring_bridge", None, ALL),
    ("laws", "member_laws", None, ALL),
    ("laws", "run_suite", _suite_info, ALL),
    ("hasse", "build_poset", None, ("cli",)),
    ("hasse", "transitive_reduction", _covers_info, ("cli",)),
    ("cli", "main", None, ("cli",)),
)


class Tracer:
    """Collects spans, tagged with the current ``trace_id``, while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.trace_id = 0
        self.queries = 0
        self.holds = 0
        self._stack: list[int] = []
        self._undo: list = []

    def _span_wrapper(self, fn, name, info):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        by_tag = name == "laws.relation_matrix"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = f"{name}:{kwargs.get('tag', args[1])}" if by_tag else name
            rec = [self.trace_id, len(spans), stack[-1] if stack else None,
                   label, clock(), 0.0, None]
            spans.append(rec)
            stack.append(rec[1])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = clock()
                stack.pop()
            if info is not None:
                rec[6] = info(args, result)
            return result
        return wrapper

    def _count_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            verdict = fn(*args, **kwargs)
            self.queries += 1
            self.holds += verdict.holds
            return verdict
        return wrapper

    def install(self):
        """Wrap every entry point and rebind every name that refers to one."""
        mods = {m: importlib.import_module("modorder." + m) for m in MODULES}
        wrappers = {}
        for mod, attr, info, _ in ENTRY_POINTS:
            fn = getattr(mods[mod], attr)
            wrappers[id(fn)] = (fn, self._span_wrapper(fn, f"{mod}.{attr}", info))
        for attr in RELATION_FUNCTIONS:
            fn = getattr(mods["orders"], attr)
            wrappers[id(fn)] = (fn, self._count_wrapper(fn))
        namespaces = [vars(m) for m in mods.values()]
        namespaces += [vars(importlib.import_module("modorder")), mods["orders"].RELATIONS]
        for ns in namespaces:
            for key, value in list(ns.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    ns[key] = hit[1]
                    self._undo.append((ns, key, value))
        for mod, attr in IMPORTED_BINDINGS:
            if not hasattr(getattr(mods[mod], attr), "__wrapped__"):
                raise RuntimeError(f"binding {mod}.{attr} was not wrapped")

    def uninstall(self):
        for ns, key, value in reversed(self._undo):
            ns[key] = value
        self._undo.clear()


def missing_spans(workload: str, names) -> list[str]:
    """Entry points that the workload calls but that recorded no span."""
    seen = {name.split(":")[0] for name in names}
    return [f"{mod}.{attr}" for mod, attr, _, workloads in ENTRY_POINTS
            if workload in workloads and f"{mod}.{attr}" not in seen]


def resolve_hom_info(spans):
    """Replace the module in each hom_group span's info by its generator count.

    Runs after the traced work, so ``generating_set`` adds to no span.
    """
    from modorder.homs import generating_set
    gens = {}
    for rec in spans:
        if rec[3] == "homs.hom_group" and not isinstance(rec[6][0], int):
            module = rec[6][0]
            if id(module) not in gens:
                gens[id(module)] = (module, len(generating_set(module)))
            rec[6] = (gens[id(module)][1], rec[6][1], rec[6][2])


def self_times(spans) -> dict[str, float]:
    """Per-name self time: span duration minus the time its children cover."""
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[2] is not None:
            child_time[rec[2]] += rec[5] - rec[4]
    totals: dict[str, float] = {}
    for rec in spans:
        own = (rec[5] - rec[4]) - child_time[rec[1]]
        totals[rec[3]] = totals.get(rec[3], 0.0) + own
    return totals
