"""Inputs, operations and answer checks for the three benchmark workloads.

``cli`` runs modorder commands as subprocesses; ``suite-cyclic`` and
``suite-products`` build each drawn module with the public builders and run
``laws.run_suite`` on a fresh context.  Every operation's answer is checked
against the digests in ``expected.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from functools import reduce
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SRC = ROOT / "src"

# The benchmark runs from a source checkout: modorder comes from its src/.
sys.path.insert(0, str(SRC))
from modorder import cli, homs, laws, modules, orders, rings  # noqa: E402

ENV = {**os.environ, "PYTHONPATH": str(SRC)}

# The module written to a tables-kind spec file for the `module-spec` command.
SPEC_MEMBER = "Z12/Z36"
SPEC_FILE = OUT / "spec-Z12-Z36.json"

# (command id, argv).  Exit codes and stdout digests live in expected.json.
CLI_MIX = (
    ("verify-paper", ("verify", "--corpus", "paper")),
    ("verify-default-json", ("verify", "--corpus", "default", "--json")),
    ("order-z6-z30-dsum", ("order", "--module", "Z6/Z30", "--rel", "dsum", "2", "5")),
    ("order-z10-minus-dual", ("order", "--module", "Z10/Z10", "--rel", "minus-dual",
                              "2", "6")),
    ("order-z6-hartwig", ("order", "--ring", "Z6", "--rel", "hartwig", "3", "5")),
    ("order-z60-dsum", ("order", "--module", "Z60/Z60", "--rel", "dsum", "12", "24")),
    ("order-rr-minus-dual", ("order", "--module", "RR:Z2xZ4xZ4", "--rel", "minus-dual",
                             "3", "5")),
    ("module-z60", ("module", "--module", "Z60/Z60")),
    ("module-spec", ("module", "--module", str(SPEC_FILE))),
    ("ring-m2", ("ring", "--ring", "M2(2)")),
    ("hasse-z60", ("hasse", "--module", "Z60/Z60", "--rel", "minus-dual", "--json")),
)

# Digest order of the relation matrices; fixed here so digests never depend
# on the order of orders.RELATIONS.
TAGS = ("minus-dual", "minus-idem", "minus-relaxed", "minus-image", "jones", "mitsch",
        "mitsch-sym", "gb", "dsum", "rstar", "lstar", "star")


def load_json(name: str):
    with open(BENCH / name) as fh:
        return json.load(fh)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


# -- cli -----------------------------------------------------------------------


def prime_interpreter():
    """Start an interpreter that imports the CLI, so bytecode caches exist."""
    subprocess.run([sys.executable, "-c", "import modorder.cli"], cwd=ROOT, env=ENV,
                   check=True)


def write_spec_file():
    OUT.mkdir(exist_ok=True)
    spec = modules.module_to_spec(build_member(SPEC_MEMBER))
    SPEC_FILE.write_text(json.dumps(spec))


def run_cli(argv, spans_path=None) -> tuple[int, bytes]:
    """One command in a fresh interpreter; with ``spans_path``, under the tracer."""
    if spans_path is None:
        cmd = [sys.executable, "-m", "modorder.cli", *argv]
    else:
        cmd = [sys.executable, str(BENCH / "cli_boot.py"), str(spans_path), *argv]
    proc = subprocess.run(cmd, cwd=ROOT, env=ENV, capture_output=True)
    return proc.returncode, proc.stdout


def cli_answer(code: int, stdout: bytes) -> dict:
    return {"exit": code, "stdout": sha256(stdout)}


def replay_cli_orders() -> tuple[int, int]:
    """Re-decide every `order` command that holds and replay its witness.

    Returns (replayed, failed).
    """
    replayed = failed = 0
    for _, argv in CLI_MIX:
        if argv[0] != "order":
            continue
        rel, m1, m2 = argv[argv.index("--rel") + 1], int(argv[-2]), int(argv[-1])
        if "--ring" in argv:
            ring = cli.parse_ring_arg(argv[argv.index("--ring") + 1])
            fn = rings.hartwig_minus_le if rel == "hartwig" else rings.ring_minus_le_annih
            verdict = fn(ring, m1, m2)
            ok = rings.revalidate_ring(verdict, ring)
        else:
            ctx = homs.ModuleContext(cli.parse_module_arg(argv[argv.index("--module") + 1]))
            verdict = orders.evaluate(ctx, rel, m1, m2)
            ok = orders.revalidate(ctx, verdict)
        if verdict.holds:
            replayed += 1
            failed += not ok
    return replayed, failed


# -- suite members --------------------------------------------------------------


def build_member(member: str):
    """A corpus member from its token: ``Zm/Zn``, ``RR:Z2xZ3...`` or ``RR:M2(2)``."""
    if member.startswith("RR:M2("):
        return modules.build_ring_as_module(rings.build_matrix_ring(int(member[6:-1])))
    if member.startswith("RR:"):
        factors = [rings.build_zn(int(f[1:])) for f in member[3:].split("x")]
        return modules.build_ring_as_module(reduce(rings.build_product, factors))
    m, n = member.split("/")
    return modules.build_zm_over_zn(int(m[1:]), int(n[1:]))


def run_member(member: str):
    """The suite operation: build the member, then every law on a fresh context."""
    ctx = homs.ModuleContext(build_member(member), member)
    return ctx, laws.run_suite([ctx])


def law_digest(reports) -> str:
    return sha256(canonical([r.to_json() for r in reports]))


def matrix_check(ctx) -> tuple[str, int]:
    """Digest of all twelve relation matrices with their witnesses.

    Every positive verdict is replayed through ``orders.revalidate``.
    Returns (digest, number of witnesses that do not replay).
    """
    h = hashlib.sha256()
    bad = 0
    for tag in TAGS:
        matrix = laws.relation_matrix(ctx, tag)
        h.update(canonical([tag, [[v.to_json() for v in row] for row in matrix.verdicts]]))
        bad += sum(not orders.revalidate(ctx, v) for row in matrix.verdicts for v in row
                   if v.holds)
    return h.hexdigest(), bad


def draw(workload: str, seed: int) -> list[str]:
    """One member from each stratum, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    members = [rng.choice(stratum) for stratum in load_json("workloads.json")[workload]["strata"]]
    rng.shuffle(members)
    return members
