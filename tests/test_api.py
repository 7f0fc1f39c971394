"""The public names of the package root, pinned: removing or adding one is a decision
that edits this list (and CHANGES.md lists every removal).  And no dead code in src/: no
unused import, no module-level private name that nothing reads."""

import ast
import types
from pathlib import Path

import modorder as mo
from modorder import orders, rings
from modorder.verdicts import Relation

PUBLIC_NAMES = [
    "AnnihPair", "AxiomError", "DirectSumWitness", "DualWitness", "EQUIVALENT_FAMILY",
    "EndoRing", "FiniteModule", "FiniteRing", "IdemPair", "InnerInverse", "LawReport",
    "MapPair", "ModuleContext", "NotAPartialOrder", "OrderVerdict", "Poset", "RELATIONS",
    "RelationMatrix", "RickartCert", "SpecError", "build_matrix_ring",
    "build_module_from_tables", "build_poset", "build_product", "build_ring_as_module",
    "build_ring_from_tables", "build_zm_over_zn", "build_zn", "check_annihilator_monotone",
    "check_equivalence", "check_partial_order", "check_ring_bridge", "check_subset_cyclic",
    "check_unit_invariance", "check_witness_constructions", "corollary_gb_le",
    "cyclic_submodule", "default_corpus", "direct_sum_le", "dual", "dual_as_module",
    "endo_ring", "evaluate", "find_converse_gap", "generating_set", "hartwig_minus_le",
    "hom_group", "idempotent_annih_identity", "is_direct_sum", "is_hom", "is_proper_star",
    "is_regular_element", "is_regular_module", "is_rickart", "is_rickart_star", "jones_le",
    "left_star_le", "member_laws", "minus_le_dual", "minus_le_idem", "minus_le_image",
    "minus_le_relaxed", "mitsch_le", "mitsch_le_sym", "module_from_spec", "module_to_spec",
    "paper_corpus", "regular_decomposition", "regular_set", "relation_matrix", "revalidate",
    "right_ann", "right_star_le", "ring_from_spec", "ring_minus_le_annih", "ring_to_spec",
    "run_suite", "same_ring", "smash", "star_le", "subset_cyclic", "to_dot", "to_json_dict",
    "transitive_reduction", "vn_regular_witness", "witness_to_json",
]


def test_public_names_of_package_root():
    names = sorted(name for name, value in vars(mo).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES


SRC = Path(mo.__file__).parent
IMPORTS = (ast.Import, ast.ImportFrom)


def _trees():
    """Each module of src/modorder by stem: its syntax tree and its lines."""
    return {path.stem: (ast.parse(text := path.read_text()), text.splitlines())
            for path in sorted(SRC.glob("*.py"))}


def _definitions(tree):
    """Each module-level name that tree binds, with the statements that bind it."""
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.setdefault(node.name, []).append(node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (n for target in targets for n in ast.walk(target)):
                if isinstance(name, ast.Name):
                    bound.setdefault(name.id, []).append(node)
    return bound


def _reads(nodes):
    """The names read in nodes: loaded names, attributes and names imported elsewhere."""
    found = set()
    for n in (n for node in nodes for n in ast.walk(node)):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, ast.alias):
            found.add(n.name)
    return found


def test_src_has_no_unused_imports_or_unread_private_names():
    """Every import outside __init__.py's re-exports is read in its module (a line marked
    noqa keeps a binding that others wrap), and every module-level private name is read
    somewhere in src/ outside the statements that define it."""
    trees, unused = _trees(), []
    for stem, (tree, lines) in trees.items():
        read = _reads(node for node in tree.body if not isinstance(node, IMPORTS))
        for node in tree.body:
            if (stem == "__init__" or not isinstance(node, IMPORTS)
                    or getattr(node, "module", None) == "__future__"
                    or "# noqa" in lines[node.lineno - 1]):
                continue
            unused += [f"{stem}: import {alias.name}" for alias in node.names
                       if (alias.asname or alias.name).split(".")[0] not in read]
    statements = [(node, _reads([node])) for tree, _ in trees.values() for node in tree.body]
    for stem, (tree, _) in trees.items():
        for name, nodes in _definitions(tree).items():
            if name.startswith("_") and not name.startswith("__") and not any(
                    name in read for node, read in statements if node not in nodes):
                unused.append(f"{stem}: {name} is never read")
    assert unused == []


def test_src_has_one_lazy_attribute_mechanism():
    """Lazy families are tables.lazy: no module of src/modorder imports or reads
    functools.cached_property, which takes a lock on each first read (Python 3.11)."""
    found = [f"{stem}: line {node.lineno}" for stem, (tree, _) in _trees().items()
             for node in ast.walk(tree)
             if isinstance(node, ast.alias) and node.name.endswith("cached_property")
             or isinstance(node, ast.Attribute) and node.attr == "cached_property"]
    assert found == []


def _mul_transposes(node):
    """The calls zip(*<x>.mul) under node, outside class FiniteRing."""
    if isinstance(node, ast.ClassDef) and node.name == "FiniteRing":
        return
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "zip"
            and any(isinstance(arg, ast.Starred) and isinstance(arg.value, ast.Attribute)
                    and arg.value.attr == "mul" for arg in node.args)):
        yield node
    for child in ast.iter_child_nodes(node):
        yield from _mul_transposes(child)


def test_only_finite_ring_transposes_a_multiplication():
    """A left-hand fact of a ring is a right-hand fact of its opposite ring: no code of
    src/modorder outside class FiniteRing, which builds R^op, transposes a ring's mul."""
    found = [f"{stem}: line {node.lineno}" for stem, (tree, _) in _trees().items()
             for node in _mul_transposes(tree)]
    assert found == []


def test_every_module_level_relation_is_in_its_table():
    """The relation tables drive the CLI, evaluate, relation_matrix and the replay: every
    module-level Relation of orders is a value of RELATIONS, and every one of rings a value
    of RING_RELATIONS, so that no pseudo-relation stands beside them."""
    stray = [f"{module.__name__}.{name}"
             for module, table in ((orders, orders.RELATIONS), (rings, rings.RING_RELATIONS))
             for name, value in vars(module).items()
             if isinstance(value, Relation) and not any(value is rel for rel in table.values())]
    assert stray == []
