"""Command-line front end.

Subcommands: ring, module, order, verify, hasse.  Exit codes follow a stable
contract: 0 = success / relation holds, 1 = relation does not hold (or a law
failed), 2 = usage, parse or not-applicable.  Identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import reprlib
import sys
from functools import reduce

from . import hasse as hasse_mod
from . import laws, orders
from .homs import ModuleContext
from .modules import FiniteModule, build_ring_as_module, build_zm_over_zn, module_from_spec
from .rings import (MAX_RING_SIZE, FiniteRing, AxiomError, RING_RELATIONS, SpecError,
                    build_matrix_ring, build_product, build_zn, is_proper_star, is_rickart,
                    is_rickart_star, ring_from_spec, spec_field, spec_str)
from .verdicts import witness_to_json


class _Token(str):
    """A token whose repr, as argparse's invalid-choice message shows it, is truncated."""

    def __repr__(self):
        return reprlib.repr(str(self))


def _path(path: str) -> str:
    """A file name for a message: whole up to 255 characters, truncated (reprlib) beyond."""
    return path if len(path) <= 255 else reprlib.repr(path)


def _load_json(path):
    name = _path(path)
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecError(f"{name}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise SpecError(f"{name}: invalid JSON at line {exc.lineno} column {exc.colno}: "
                        f"{exc.msg}") from None
    except UnicodeDecodeError:
        raise SpecError(f"{name}: not UTF-8 text") from None
    except ValueError:  # json.load's int() refuses an integer past Python's digit limit
        raise SpecError(f"{name}: an integer has more than {sys.get_int_max_str_digits()} "
                        f"digits, beyond cap {MAX_RING_SIZE}") from None


def parse_ring_arg(token: str) -> FiniteRing:
    """A builtin token (Z10, Z2xZ3, M2(3)) or a path to a ring definition file."""
    return _ring(token, "ring", token)


def _ring(token: str, kind: str, typed: str) -> FiniteRing:
    """The ring of ``token``: ``typed``, the argument as given for a ``kind``, or one of its
    parts.  A malformed token is a SpecError that names ``typed``."""
    if os.path.exists(token) or token.endswith(".json"):
        return ring_from_spec(_load_json(token))
    if token.startswith("M2(") and token.endswith(")") and token[3:-1].isdecimal():
        return build_matrix_ring(_number(token[3:-1], kind, typed))
    if "x" in token:
        return reduce(build_product, (_ring(part, kind, typed) for part in token.split("x")))
    if token.startswith("Z") and token[1:].isdecimal():
        return build_zn(_number(token[1:], kind, typed))
    raise SpecError(f"cannot interpret {kind} {reprlib.repr(typed)} "
                    "(no such file, not a builtin)")


def element(token: str) -> int:
    """An element operand; a long one is shown by its digit count or truncated, not echoed."""
    digits = token.strip().lstrip("+-").replace("_", "").lstrip("0")  # as int() reads them
    if len(digits) > 20 and digits.isdecimal():  # beyond every cap
        raise argparse.ArgumentTypeError(f"element <{len(digits)} digits> out of range")
    try:
        return int(token)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid element value: {reprlib.repr(token)}") from None


def _number(digits: str, kind: str, typed: str) -> int:
    """A builtin token's number; past 20 digits, beyond every cap, ``typed`` is refused
    with the digits counted (int() refuses past 4300)."""
    if len(digits) > 20:
        shown = reprlib.repr(typed.replace(digits, f"<{len(digits)} digits>"))
        raise SpecError(f"{kind} {shown} is beyond cap {MAX_RING_SIZE}")
    return int(digits)


def parse_module_arg(token: str) -> FiniteModule:
    """A builtin token (Z6/Z30, RR:Z10, RR:M2(2)) or a module definition file."""
    if os.path.exists(token) or token.endswith(".json"):
        return module_from_spec(_load_json(token))
    if token.startswith("RR:"):
        return build_ring_as_module(_ring(token[3:], "module", token))
    m_part, _, n_part = token.partition("/")
    if all(part[:1] == "Z" and part[1:].isdecimal() for part in (m_part, n_part)):
        return build_zm_over_zn(*(_number(part[1:], "module", token)
                                  for part in (m_part, n_part)))
    raise SpecError(f"cannot interpret module {reprlib.repr(token)} "
                    "(no such file, not a builtin)")


def _fmt_set(values) -> str:
    return "{" + ", ".join(str(v) for v in sorted(values)) + "}"


def _emit(payload):
    print(json.dumps(payload, separators=(", ", ": ")))


# -- subcommands ---------------------------------------------------------------


def cmd_ring(args) -> int:
    ring = parse_ring_arg(args.ring)
    info = {
        "name": ring.name,
        "size": ring.size,
        "commutative": ring.is_commutative(),
        "idempotents": sorted(ring.idempotents()),
        "units": sorted(ring.units()),
        "involution": ring.involution is not None,
        "rickart": is_rickart(ring).holds,
    }
    if ring.involution is not None:
        info["projections"] = sorted(ring.projections())
        info["proper_star"] = is_proper_star(ring)
        info["rickart_star"] = is_rickart_star(ring).holds
    if args.json:
        _emit(info)
        return 0
    print(f"ring {info['name']}: size {info['size']}")
    print(f"commutative: {str(info['commutative']).lower()}")
    print(f"idempotents: {_fmt_set(info['idempotents'])}")
    print(f"units: {_fmt_set(info['units'])}")
    if ring.involution is not None:
        print(f"projections: {_fmt_set(info['projections'])}")
        print(f"proper-star: {str(info['proper_star']).lower()}")
    else:
        print("involution: absent")
    print(f"rickart: {str(info['rickart']).lower()}")
    if ring.involution is not None:
        print(f"rickart-star: {str(info['rickart_star']).lower()}")
    return 0


def cmd_module(args) -> int:
    module = parse_module_arg(args.module)
    ctx = ModuleContext(module)
    regular, first_bad = orders.is_regular_module(ctx)
    info = {
        "name": module.name,
        "size": module.size,
        "ring": module.ring.name,
        "dual_size": len(ctx.dual),
        "endo_size": ctx.endos.size,
        "regular": regular,
    }
    if not regular:
        info["first_non_regular"] = first_bad
    if args.json:
        _emit(info)
        return 0
    print(f"module {info['name']} over {info['ring']}: size {info['size']}")
    print(f"|M*| = {info['dual_size']}, |S| = {info['endo_size']}")
    print("regular: true" if regular else f"regular: false at {first_bad}")
    return 0


def cmd_order(args) -> int:
    if args.rel in RING_RELATIONS:
        if not args.ring:
            raise SpecError(f"relation {args.rel} needs --ring")
        verdict = RING_RELATIONS[args.rel](parse_ring_arg(args.ring), args.m1, args.m2)
    else:
        if not args.module:
            raise SpecError(f"relation {args.rel} needs --module")
        ctx = ModuleContext(parse_module_arg(args.module))
        verdict = orders.evaluate(ctx, args.rel, args.m1, args.m2)

    if args.json:
        _emit(verdict.to_json())
    elif not verdict.applicable:
        print(f"{verdict.relation}({args.m1}, {args.m2}): not applicable "
              "(required involution is absent)")
    else:
        word = "holds" if verdict.holds else "does not hold"
        print(f"{verdict.relation}({args.m1}, {args.m2}): {word}")
        if verdict.witness is not None:
            print(f"witness: {json.dumps(witness_to_json(verdict.witness))}")
        if not verdict.hypothesis_ok:
            print("note: hypothesis violated (operand outside the regular domain)")
    if not verdict.applicable:
        raise ValueError(f"relation {args.rel!r} is not applicable on {ctx.name}: "
                         "the required involution is absent")
    return 0 if verdict.holds else 1


def _load_corpus(token: str):
    if token in laws.CORPORA:
        return laws.CORPORA[token]()
    spec = _load_json(token)
    if not isinstance(spec, list):
        raise SpecError("corpus file must be a JSON list of {id, module} entries")
    corpus = []
    for entry in spec:
        module = module_from_spec(spec_field(entry, "module", "corpus entry"))
        corpus.append(ModuleContext(module, spec_str(entry, "id", "corpus entry")))
    return corpus


def cmd_verify(args) -> int:
    if args.laws and not any(args.laws in law for law in laws.LAW_IDS):
        raise SpecError(f"--laws {reprlib.repr(args.laws)} matches no law id")
    corpus = _load_corpus(args.corpus)
    reports = laws.run_suite(corpus, args.laws)
    outcomes = [r.outcome for r in reports]
    failed = outcomes.count("fail")
    if args.json:
        for r in reports:
            _emit(r.to_json())
    else:
        width = max((len(r.law) for r in reports), default=10) + 2
        for r in reports:
            line = f"{r.member:<10} {r.law:<{width}} {r.outcome}"
            if r.outcome == "fail":
                line += f"  {json.dumps(r.counterexample)}"
            print(line)
        print(f"summary: {outcomes.count('pass')}/{len(reports)} passed, "
              f"{outcomes.count('not-applicable')} not-applicable, {failed} failed")
    return 1 if failed else 0


def cmd_hasse(args) -> int:
    ctx = ModuleContext(parse_module_arg(args.module))
    poset = hasse_mod.build_poset(ctx, args.rel)
    if args.json:
        _emit(hasse_mod.to_json_dict(poset))
        return 0
    dot = hasse_mod.to_dot(poset)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(dot)
        except OSError as exc:
            raise SpecError(f"{_path(args.out)}: {exc.strerror}") from None
        print(f"wrote {args.out}: {len(poset.elements)} nodes, "
              f"{len(poset.covers)} edges")
    else:
        sys.stdout.write(dot)
        print(f"{len(poset.elements)} nodes, {len(poset.covers)} edges")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modorder",
        description="Minus-type partial orders on finite modules, with witnesses")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ring", help="inspect a ring")
    p.add_argument("--ring", required=True, help="builtin token (Z10, Z2xZ3, M2(2)) or file")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("module", help="inspect a module")
    p.add_argument("--module", required=True, help="builtin token (Z6/Z30, RR:Z10) or file")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("order", help="decide one relation on a pair")
    p.add_argument("--module", help="module for module-level relations")
    p.add_argument("--ring", help="ring for hartwig / ring-annih")
    p.add_argument("--rel", required=True, type=_Token,
                   choices=sorted(orders.RELATIONS) + list(RING_RELATIONS))
    p.add_argument("m1", type=element)
    p.add_argument("m2", type=element)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="run the law suite over a corpus")
    p.add_argument("--corpus", default="default", help="corpus name (paper, default) or file")
    p.add_argument("--laws", help="only run laws whose id contains this substring")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("hasse", help="emit the Hasse diagram of a verified order")
    p.add_argument("--module", required=True)
    p.add_argument("--rel", required=True, type=_Token, choices=sorted(orders.RELATIONS))
    p.add_argument("--out", help="write DOT here instead of stdout")
    p.add_argument("--json", action="store_true")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = {"ring": cmd_ring, "module": cmd_module, "order": cmd_order,
               "verify": cmd_verify, "hasse": cmd_hasse}[args.command]
    try:
        return command(args)
    except (SpecError, AxiomError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
