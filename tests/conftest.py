import json
import os
import sys
from functools import reduce
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import modorder as mo

from oracles import ORACLE_RINGS


@pytest.fixture(scope="session")
def child_env():
    """Environment for child interpreters, with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(__file__).parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}


@pytest.fixture(scope="session")
def products_strata():
    """The R_R of every member in the strata of the suite-products benchmark workload."""
    spec = json.loads((Path(__file__).parent.parent / "perfbench" / "workloads.json")
                      .read_text())["suite-products"]
    contexts = []
    for member in (m for stratum in spec["strata"] for m in stratum):
        ring = (mo.build_matrix_ring(int(member[6:-1])) if member.startswith("RR:M2(")
                else reduce(mo.build_product, [mo.build_zn(int(f[1:]))
                                               for f in member[3:].split("x")]))
        contexts.append(mo.ModuleContext(mo.build_ring_as_module(ring), member))
    return contexts


@pytest.fixture(scope="session")
def corpus():
    """The default corpus, keyed by member name; contexts are shared."""
    return {ctx.name: ctx for ctx in mo.default_corpus()}


@pytest.fixture(scope="session")
def z6_over_z30(corpus):
    return corpus["Z6/Z30"]


@pytest.fixture(scope="session")
def z10_over_z10(corpus):
    return corpus["Z10/Z10"]


@pytest.fixture(scope="session")
def z6_over_z6(corpus):
    return corpus["Z6/Z6"]


@pytest.fixture(scope="session")
def z4_over_z4():
    return mo.ModuleContext(mo.build_zm_over_zn(4, 4), "Z4/Z4")


@pytest.fixture(scope="session")
def klein_four():
    """F2 x F2 over Z2: smallest module whose endomorphism ring is noncommutative."""
    from oracles import klein_four_tables
    add, action = klein_four_tables()
    module = mo.build_module_from_tables(mo.build_zn(2), add, action, name="F2^2")
    return mo.ModuleContext(module, "F2^2")


@pytest.fixture(scope="session")
def oracle_contexts():
    """R_R of each of oracles.ORACLE_RINGS, keyed by ring name."""
    contexts = {}
    for name in ORACLE_RINGS:
        ring = (mo.build_matrix_ring(2) if name == "M2(Z2)" else
                reduce(mo.build_product, [mo.build_zn(int(f[1:])) for f in name.split("x")]))
        contexts[name] = mo.ModuleContext(mo.build_ring_as_module(ring), name)
    return contexts
