import ast
import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import modorder as mo
from modorder import cli
from modorder.orders import RELATIONS

from oracles import f2_power_spec, klein_four_tables, zm_over_zn_tables, zn_tables


def run_cli(*argv):
    import io
    import contextlib
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_ring_info_z10():
    code, out, _ = run_cli("ring", "--ring", "Z10")
    assert code == 0
    assert "idempotents: {0, 1, 5, 6}" in out
    assert "units: {1, 3, 7, 9}" in out
    assert "rickart: true" in out


def test_ring_info_z4_not_rickart():
    code, out, _ = run_cli("ring", "--ring", "Z4")
    assert code == 0
    assert "rickart: false" in out


def test_ring_info_json():
    code, out, _ = run_cli("ring", "--ring", "M2(2)", "--json")
    assert code == 0
    info = json.loads(out)
    assert info["size"] == 16 and info["commutative"] is False
    assert info["rickart"] is True and info["rickart_star"] is False


def test_ring_from_file(tmp_path):
    path = tmp_path / "ring.json"
    path.write_text(json.dumps({"kind": "product",
                                "factors": [{"kind": "Zn", "n": 2},
                                            {"kind": "Zn", "n": 3}]}))
    code, out, _ = run_cli("ring", "--ring", str(path), "--json")
    assert code == 0 and json.loads(out)["size"] == 6


def test_malformed_file_diagnostic(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli("ring", "--ring", str(path))
    assert code == 2
    assert "line 1" in err


def test_unknown_builtin():
    """A malformed builtin token is refused with the whole token as typed."""
    for flag, token in [("--ring", "Q8"), ("--ring", "M2(x)"), ("--ring", "M2()"),
                        ("--ring", "Z2xx"), ("--ring", "x"), ("--module", "Z/Z"),
                        ("--module", "Z6/Zx"), ("--module", "RR:"), ("--module", "RR:Z2xx")]:
        code, out, err = run_cli(flag[2:], flag, token)
        assert code == 2 and out == "", token
        assert err == (f"error: cannot interpret {flag[2:]} {token!r} "
                       "(no such file, not a builtin)\n")


@pytest.mark.parametrize("p,message", [
    ("2305843009213693951", "beyond cap 256"),  # 2^61 - 1, a prime
    ("1" + "0" * 400, "beyond cap 256"),
    ("4", "4 is not prime"),  # 4^4 = 256 is within the cap
])
def test_matrix_ring_cap_before_primality(child_env, p, message):
    proc = subprocess.run([sys.executable, "-m", "modorder.cli", "ring", "--ring", f"M2({p})"],
                          capture_output=True, text=True, env=child_env, timeout=10)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert message in proc.stderr


def _cli_subprocess(env, *argv):
    """One command in a fresh interpreter, as a user runs it, bounded by a timeout."""
    return subprocess.run([sys.executable, "-m", "modorder.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=10)


@pytest.mark.parametrize("flag,token,shown", [
    ("--ring", "M2(1" + "0" * 1100 + ")", "'M2(<1101 digits>)'"),
    ("--ring", "Z1" + "0" * 5000, "'Z<5001 digits>'"),
    ("--module", "Z1" + "0" * 5000 + "/Z2", "'Z<5001 digits>/Z2'"),
    ("--ring", "M2(1" + "0" * 5000 + ")", "'M2(<5001 digits>)'"),
])
def test_oversized_builtin_number_is_refused_by_name(child_env, flag, token, shown):
    """A number past every size cap is refused with the token as typed, its digits counted
    rather than echoed (int() itself refuses one past 4300 digits)."""
    proc = _cli_subprocess(child_env, flag[2:], flag, token)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: {flag[2:]} {shown} is beyond cap 256\n"


@pytest.mark.parametrize("digits,message", [
    (5001, "an integer has more than 4300 digits, beyond cap 256"),
    (1001, "ring size <1001 digits> exceeds cap 256"),
])
def test_oversized_spec_number_is_refused_by_name(child_env, tmp_path, digits, message):
    """A spec file's n too long for json.load is refused naming the file; one that loads is
    refused by the ring cap, its digits counted rather than echoed."""
    path = tmp_path / "big.json"
    path.write_text('{"kind": "ZmOverZn", "m": 2, "n": 1' + "0" * (digits - 1) + "}")
    proc = _cli_subprocess(child_env, "module", "--module", str(path))
    assert proc.returncode == 2 and proc.stdout == ""
    prefix = f"{path}: " if digits > 4300 else ""
    assert proc.stderr == f"error: {prefix}{message}\n"


@pytest.mark.parametrize("operand", ["m1", "m2"])
@pytest.mark.parametrize("token,message", [
    ("1" + "0" * 1000, "element <1001 digits> out of range"),
    ("1" + "0" * 5000, "element <5001 digits> out of range"),
    (" 1" + "0" * 5000 + " ", "element <5001 digits> out of range"),
    ("+0001" + "_000" * 1500, "element <4501 digits> out of range"),
    ("x" * 5000, "invalid element value: 'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
    ("0" * 5000 + "3", "invalid element value: '000000000000...0000000000003'"),
], ids=["1001", "5001", "blanks", "underscores", "letters", "zeros"])
def test_oversized_operand_is_refused_by_its_digits(child_env, operand, token, message):
    """An element operand past 20 digits is refused by argparse, naming the operand and
    counting its digits (as int() reads them: padded, signed or with underscores); a
    long token that int() refuses is truncated: neither is echoed."""
    pair = (token, "2") if operand == "m1" else ("2", token)
    proc = _cli_subprocess(child_env, "order", "--module", "Z6/Z30", "--rel", "dsum", *pair)
    assert proc.returncode == 2 and proc.stdout == "" and len(proc.stderr) < 600
    assert [line for line in proc.stderr.splitlines() if "error:" in line] == [
        f"modorder order: error: argument {operand}: {message}"]


@pytest.mark.parametrize("argv,shown", [
    (("module", "--module", "x" * 5000),
     "error: cannot interpret module 'xxxxxxxxxxxx...xxxxxxxxxxxxx' (no such file, not a builtin)"),
    (("ring", "--ring", "x" * 5000),
     "error: cannot interpret ring 'xxxxxxxxxxxx...xxxxxxxxxxxxx' (no such file, not a builtin)"),
    (("hasse", "--module", "Z6/Z6", "--rel", "x" * 5000),
     "modorder hasse: error: argument --rel: invalid choice: 'xxxxxxxxxxxx...xxxxxxxxxxxxx' "
     "(choose from "),
    (("verify", "--corpus", "x" * 5000),
     "error: 'xxxxxxxxxxxx...xxxxxxxxxxxxx': File name too long"),
], ids=["module", "ring", "rel", "corpus"])
def test_long_token_is_truncated_not_echoed(child_env, argv, shown):
    """A long token that names nothing is shown truncated in its error line."""
    proc = _cli_subprocess(child_env, *argv)
    assert proc.returncode == 2 and proc.stdout == "" and len(proc.stderr) < 500
    assert [line for line in proc.stderr.splitlines() if "error:" in line][0].startswith(shown)


@pytest.mark.parametrize("flag,spec,message", [
    ("--ring", {"kind": "x" * 5000}, "unknown ring kind 'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
    ("--module", {"kind": ["x" * 5000]}, "unknown module kind ['xxxxxxxxxxxx...xxxxxxxxxxxxx']"),
    ("--ring", {"kind": "Zn", "n": "x" * 5000},
     "Zn spec field 'n' must be an integer, not 'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
])
def test_long_spec_value_is_truncated_not_echoed(tmp_path, flag, spec, message):
    """A long value in a spec file is shown truncated in the error that names its field."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert run_cli(flag[2:], flag, str(path)) == (2, "", f"error: {message}\n")


def test_short_tokens_are_shown_whole(child_env, tmp_path):
    """Tokens of ordinary length keep their messages: the relation as argparse shows it,
    and a corpus file's path unquoted."""
    proc = _cli_subprocess(child_env, "order", "--module", "Z6/Z30", "--rel", "dsumx", "1", "2")
    assert proc.returncode == 2 and ("argument --rel: invalid choice: 'dsumx' (choose from "
                                     "'dsum', 'gb', ") in proc.stderr
    path = tmp_path / "missing.json"
    code, out, err = run_cli("verify", "--corpus", str(path))
    assert (code, out, err) == (2, "", f"error: {path}: No such file or directory\n")


def test_padded_operand_is_read_as_int_reads_it(child_env):
    """Leading zeros, blanks and underscores do not count as digits of the value, and a
    short token that is not a number is shown whole."""
    _, out, _ = run_cli("order", "--module", "Z6/Z30", "--rel", "dsum", "0" * 30 + "2",
                        " 0_4 ", "--json")
    assert json.loads(out)["operands"] == [2, 4]
    proc = _cli_subprocess(child_env, "order", "--module", "Z6/Z30", "--rel", "dsum", "2", "abc")
    assert proc.returncode == 2 and proc.stderr.endswith(
        "modorder order: error: argument m2: invalid element value: 'abc'\n")


@pytest.mark.parametrize("entry,shown", [
    (10 ** 1000, "<1001 digits>"),
    ("x" * 5000, "'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
], ids=["digits", "string"])
def test_oversized_tables_entry_is_refused_by_its_cell(child_env, tmp_path, entry, shown):
    """A bad table entry is named by its cell and shown by its digit count or truncated."""
    path = tmp_path / "ring.json"
    path.write_text(json.dumps({"kind": "tables", "add": [[0, 1], [1, 0]],
                                "mul": [[0, 0], [0, entry]]}))
    proc = _cli_subprocess(child_env, "ring", "--ring", str(path))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: mul[1][1] = {shown} is not in 0..1\n"


def test_non_utf8_spec_file_is_named(tmp_path):
    path = tmp_path / "ring.json"
    path.write_bytes(b'{"kind": "Zn", "n": \xff}')
    code, out, err = run_cli("ring", "--ring", str(path))
    assert (code, out, err) == (2, "", f"error: {path}: not UTF-8 text\n")


def test_module_info():
    code, out, _ = run_cli("module", "--module", "Z6/Z30")
    assert code == 0
    assert "|M*| = 6, |S| = 6" in out
    assert "regular: true" in out


def test_module_info_non_regular():
    code, out, _ = run_cli("module", "--module", "Z4/Z4")
    assert code == 0
    assert "regular: false at 2" in out


def test_module_info_json_names_the_first_non_regular_element():
    """In Z4/Z8, 1 = 1.phi(1) would need phi(1) to act as 1, but M* maps 1 into 2Z8."""
    code, out, err = run_cli("module", "--module", "Z4/Z8", "--json")
    assert (code, err) == (0, "")
    assert out == ('{"name": "Z4/Z8", "size": 4, "ring": "Z8", "dual_size": 4, "endo_size": 4, '
                   '"regular": false, "first_non_regular": 1}\n')


@pytest.mark.parametrize("rel, needs", [("minus-dual", "--module"), ("hartwig", "--ring")])
def test_order_without_ring_or_module_is_refused(rel, needs):
    assert run_cli("order", "--rel", rel, "1", "2") == (
        2, "", f"error: relation {rel} needs {needs}\n")


def test_ring_without_involution_prints_it_absent(tmp_path):
    """M2(Z2)'s tables without the transpose: no projections, proper-star or rickart-star."""
    spec = mo.ring_to_spec(mo.build_matrix_ring(2))
    del spec["involution"]
    path = tmp_path / "m2.json"
    path.write_text(json.dumps(spec))
    assert run_cli("ring", "--ring", str(path)) == (0, (
        "ring M2(Z2): size 16\ncommutative: false\nidempotents: {0, 1, 3, 5, 8, 9, 10, 12}\n"
        "units: {6, 7, 9, 11, 13, 14}\ninvolution: absent\nrickart: true\n"), "")


@pytest.mark.parametrize("content", ['{"id": "x"}', '"Z6/Z30"', "3"])
def test_corpus_file_that_is_not_a_list_is_refused(tmp_path, content):
    path = tmp_path / "corpus.json"
    path.write_text(content)
    assert run_cli("verify", "--corpus", str(path)) == (
        2, "", "error: corpus file must be a JSON list of {id, module} entries\n")


def test_order_dsum_paper_example():
    code, out, _ = run_cli("order", "--module", "Z6/Z30", "--rel", "dsum", "2", "5")
    assert code == 0
    assert "holds" in out
    assert '"first": [0, 2, 4]' in out and '"second": [0, 3]' in out


def test_order_counterexample_exit_code():
    code, out, _ = run_cli("order", "--module", "Z10/Z10", "--rel", "minus-dual", "2", "6")
    assert code == 1
    assert "does not hold" in out


def test_order_ring_mode():
    code, out, _ = run_cli("order", "--ring", "Z6", "--rel", "hartwig", "3", "5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["holds"] and payload["witness"] == {"kind": "inner-inverse", "value": 3}
    code, _, _ = run_cli("order", "--ring", "Z6", "--rel", "ring-annih", "1", "5")
    assert code == 1


def test_order_star_not_applicable(tmp_path):
    add, action = klein_four_tables()
    spec = {"kind": "tables", "ring": {"kind": "Zn", "n": 2},
            "size": 4, "add": add, "action": action}
    path = tmp_path / "klein.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli("order", "--module", str(path), "--rel", "star", "1", "1")
    assert code == 2
    assert "not applicable" in out
    assert err.startswith("error: ") and "not applicable" in err
    code, out, err = run_cli("order", "--module", "RR:M2(2)", "--rel", "star", "1", "2")
    assert code == 2
    assert out == "star(1, 2): not applicable (required involution is absent)\n"
    assert err == ("error: relation 'star' is not applicable on M2(Z2)_R: "
                   "the required involution is absent\n")


def test_order_out_of_range():
    code, _, err = run_cli("order", "--module", "Z6/Z6", "--rel", "jones", "0", "9")
    assert code == 2 and "out of range" in err


def test_order_hypothesis_note():
    code, out, _ = run_cli("order", "--module", "Z4/Z4", "--rel", "minus-idem", "2", "2")
    assert code == 1
    assert "hypothesis violated" in out


def test_verify_paper_corpus():
    code, out, _ = run_cli("verify", "--corpus", "paper")
    assert code == 0
    assert "0 failed" in out


def test_verify_law_filter_json():
    code, out, _ = run_cli("verify", "--corpus", "paper", "--laws", "equiv", "--json")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert records and all("equiv" in r["law"] for r in records)


@pytest.mark.parametrize("laws, shown", [("nothing", "'nothing'"),
                                         ("y" * 300, "'yyyyyyyyyyyy...yyyyyyyyyyyyy'")])
def test_verify_refuses_filter_matching_no_law(child_env, laws, shown):
    """A --laws filter that no law id contains is a usage error, not an empty pass."""
    proc = subprocess.run([sys.executable, "-m", "modorder.cli", "verify", "--corpus", "paper",
                           "--laws", laws], capture_output=True, text=True, env=child_env,
                          timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: --laws {shown} matches no law id\n"


def test_verify_empty_corpus_file_still_passes(tmp_path):
    path = tmp_path / "corpus.json"
    path.write_text("[]")
    for extra in ((), ("--laws", "equiv")):
        code, out, err = run_cli("verify", "--corpus", str(path), *extra)
        assert (code, out, err) == (0, "summary: 0/0 passed, 0 not-applicable, 0 failed\n", "")


def test_verify_corrupted_fixture(tmp_path):
    add, action = klein_four_tables()
    action[2][1] = 3  # break unitality
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps([{"id": "broken", "module": {
        "kind": "tables", "ring": {"kind": "Zn", "n": 2},
        "size": 4, "add": add, "action": action}}]))
    code, _, err = run_cli("verify", "--corpus", str(path))
    assert code == 2
    assert "unitality" in err


def test_hasse_z6(tmp_path):
    out_path = tmp_path / "z6.dot"
    code, out, _ = run_cli("hasse", "--module", "Z6/Z6", "--rel", "minus-dual",
                           "--out", str(out_path))
    assert code == 0
    assert "6 nodes, 7 edges" in out
    dot = out_path.read_text()
    assert dot.count("->") == 7


def test_hasse_out_unwritable(tmp_path):
    out_path = tmp_path / "missing" / "z6.dot"
    code, _, err = run_cli("hasse", "--module", "Z6/Z6", "--rel", "minus-dual",
                           "--out", str(out_path))
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
    assert str(out_path) in err


def test_hasse_json():
    code, out, _ = run_cli("hasse", "--module", "Z2/Z2", "--rel", "minus-dual", "--json")
    assert code == 0
    assert json.loads(out) == {"elements": [0, 1], "covers": [[0, 1]]}


def test_hasse_dashed_non_regular():
    code, out, _ = run_cli("hasse", "--module", "Z4/Z4", "--rel", "minus-dual")
    assert code == 0
    assert '"2" [style=dashed];' in out


def test_hasse_star_without_involution(tmp_path):
    add, action = klein_four_tables()
    path = tmp_path / "klein.json"
    path.write_text(json.dumps({"kind": "tables", "ring": {"kind": "Zn", "n": 2},
                                "size": 4, "add": add, "action": action}))
    code, _, err = run_cli("hasse", "--module", str(path), "--rel", "star")
    assert code == 2
    assert "not applicable" in err


def test_hasse_non_order_leaves_through_main(monkeypatch):
    report = mo.LawReport("partial-order/minus-dual", "Z6/Z6", "fail",
                          {"axiom": "antisymmetry", "pair": [2, 5]}, 20)

    def refuse(ctx, tag):
        raise mo.NotAPartialOrder(report)
    monkeypatch.setattr(cli.hasse_mod, "build_poset", refuse)
    code, out, err = run_cli("hasse", "--module", "Z6/Z6", "--rel", "minus-dual")
    assert (code, out) == (2, "")
    assert err == ("error: relation is not a partial order: "
                   "{'axiom': 'antisymmetry', 'pair': [2, 5]}\n")


def test_only_main_writes_errors():
    """Every ``error:`` line and exit 2 come from main's one handler."""
    tree = ast.parse(Path(cli.__file__).read_text())
    writers = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn) if isinstance(node, ast.Attribute)
               and node.attr == "stderr"}
    assert writers == {"main"}


def test_byte_identical_reruns(child_env):
    """Two identical subprocess invocations must agree byte for byte."""
    for corpus in ("paper", "default"):
        cmd = [sys.executable, "-m", "modorder.cli", "verify", "--corpus", corpus, "--json"]
        first = subprocess.run(cmd, capture_output=True, env=child_env)
        second = subprocess.run(cmd, capture_output=True, env=child_env)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
    cmd = [sys.executable, "-m", "modorder.cli", "order", "--module", "Z6/Z30",
           "--rel", "minus-idem", "2", "5", "--json"]
    assert subprocess.run(cmd, capture_output=True, env=child_env).stdout == \
           subprocess.run(cmd, capture_output=True, env=child_env).stdout


def test_cli_import_loads_no_dataclasses_or_inspect(child_env):
    """Every command is a fresh interpreter, so the CLI keeps out the heavy modules that
    ``@dataclass`` pulls in; measured against a bare interpreter, whose site hooks may
    load modules of their own."""
    def modules(prelude):
        show = prelude + "import json, sys; print(json.dumps(sorted(sys.modules)))"
        proc = subprocess.run([sys.executable, "-c", show], capture_output=True,
                              env=child_env, check=True)
        return set(json.loads(proc.stdout))
    added = modules("import modorder.cli; ") - modules("")
    assert "modorder.cli" in added
    assert not added & {"dataclasses", "inspect"}, sorted(added)


def test_missing_ring_file(tmp_path):
    code, _, err = run_cli("ring", "--ring", str(tmp_path / "nofile.json"))
    assert code == 2 and "nofile.json" in err


def test_missing_corpus_file(tmp_path):
    code, _, err = run_cli("verify", "--corpus", str(tmp_path / "nofile.json"))
    assert code == 2 and "nofile.json" in err


def test_ring_spec_missing_key(tmp_path):
    path = tmp_path / "ring.json"
    path.write_text(json.dumps({"kind": "Zn"}))
    code, _, err = run_cli("ring", "--ring", str(path))
    assert code == 2 and "Zn" in err and "'n'" in err


def test_corpus_entry_missing_module(tmp_path):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps([{"id": "lost"}]))
    code, _, err = run_cli("verify", "--corpus", str(path))
    assert code == 2 and "corpus entry" in err and "'module'" in err


@pytest.mark.parametrize("flag, spec", [
    ("--ring", {"kind": "Zn", "n": [4]}),
    ("--module", {"kind": "ZmOverZn", "m": 2, "n": None}),
    ("--ring", {"kind": "product", "factors": 5}),
    ("--ring", {"kind": "tables", "add": 5, "mul": [[0]]}),
    ("--ring", {"kind": "tables", "add": [[0, 1], [1, "a"]], "mul": [[0, 0], [0, 1]]}),
    ("--ring", {"kind": "tables", "name": {"a": 1}, "add": [[0]], "mul": [[0]]}),
    ("--module", {"kind": "tables", "name": ["M"], "ring": {"kind": "Zn", "n": 1},
                  "add": [[0]], "action": [[0]]}),
])
def test_spec_field_of_wrong_type(tmp_path, flag, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, _, err = run_cli(flag.strip("-"), flag, str(path))
    assert code == 2 and err.startswith("error: ")


@pytest.mark.parametrize("flag, spec", [
    ("--ring", {"kind": "tables", "add": [[0]], "mul": [[0]], "size": "x"}),
    ("--ring", {"kind": "tables", "add": [[0]], "mul": [[0]], "size": 2}),
    ("--module", {"kind": "tables", "ring": {"kind": "Zn", "n": 1},
                  "add": [[0]], "action": [[0]], "size": "1"}),
    ("--module", {"kind": "tables", "ring": {"kind": "Zn", "n": 1},
                  "add": [[0]], "action": [[0]], "size": 0}),
    ("--module", {"kind": "tables", "ring": {"kind": "tables", "add": [[0]], "mul": [[0]],
                                             "size": True},
                  "add": [[0]], "action": [[0]]}),
])
def test_tables_spec_size_checked(tmp_path, flag, spec):
    """A present "size" must be an int equal to the number of table rows."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(flag.strip("-"), flag, str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "'size'" in err


# sha256 of the stdout of `verify --corpus default --laws X` before the laws were
# filtered ahead of their checks; filtering must not change a byte.
FILTERED_VERIFY_SHA256 = {
    "ring-bridge": "8b5d2e9d07560fe3efb7b711b4cd119e0b43ea695636a1cfe8e436102bee32c1",
    "equiv": "66cb4ff919b897f97ea28bacb0fc2b2671aed6b2d4b9256282e37141ad398172",
}


@pytest.mark.parametrize("law", sorted(FILTERED_VERIFY_SHA256))
def test_filtered_verify_output_unchanged(law):
    code, out, _ = run_cli("verify", "--corpus", "default", "--laws", law)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FILTERED_VERIFY_SHA256[law]


@pytest.mark.parametrize("k,reason", [(4, "End(F2^4) has 65536 elements"), (6, "budget")])
def test_module_beyond_caps_refused(tmp_path, child_env, k, reason):
    """F2^4/Z2 has 2^16 endomorphisms; F2^6/Z2 needs an extension step beyond the budget."""
    path = tmp_path / f"f2_{k}.json"
    path.write_text(json.dumps(f2_power_spec(k)))
    proc = subprocess.run([sys.executable, "-m", "modorder.cli", "module", "--module", str(path)],
                          capture_output=True, text=True, env=child_env, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert reason in proc.stderr


def test_verify_member_beyond_caps_refused(tmp_path):
    """Z6+Z6 over Z6 has 1296 endomorphisms: verify ends in one error naming the member."""
    pairs = [divmod(x, 6) for x in range(36)]
    add = [[6 * ((a + c) % 6) + (b + d) % 6 for c, d in pairs] for a, b in pairs]
    action = [[6 * (a * r % 6) + b * r % 6 for r in range(6)] for a, b in pairs]
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps([
        {"id": "Z2/Z2", "module": {"kind": "ZmOverZn", "m": 2, "n": 2}},
        {"id": "Z6+Z6/Z6", "module": {"kind": "tables", "ring": {"kind": "Zn", "n": 6},
                                      "add": add, "action": action}}]))
    code, out, err = run_cli("verify", "--corpus", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Z6+Z6/Z6" in err and "1296" in err


def test_large_ring_spec_checked(tmp_path):
    add, mul = zn_tables(128)
    mul[2][3] = mul[3][2] = 1
    path = tmp_path / "z128.json"
    path.write_text(json.dumps({"kind": "tables", "add": add, "mul": mul}))
    code, out, err = run_cli("ring", "--ring", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def corrupted(base):
    """``base`` with up to three cells overwritten by entries in -1..len(base)."""
    rows, cols = len(base), len(base[0])
    cells = st.lists(st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1),
                               st.integers(-1, rows)), max_size=3)

    def overwrite(cells):
        table = [list(row) for row in base]
        for i, j, v in cells:
            table[i][j] = v
        return table
    return cells.map(overwrite)


def small_table(base):
    """A table the shape of ``base`` with entries in -1..n: random, or ``base`` with up
    to three cells overwritten."""
    n = len(base)
    entry = st.integers(-1, n)
    random_table = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    return random_table | corrupted(base)


@st.composite
def tables_ring_specs(draw):
    n = draw(st.integers(1, 4))
    add, mul = zn_tables(n)
    spec = {"kind": "tables", "add": draw(small_table(add)), "mul": draw(small_table(mul))}
    involution = draw(st.none() | st.just(list(range(n)))
                      | st.lists(st.integers(-1, n), min_size=n - 1, max_size=n + 1))
    if involution is not None:
        spec["involution"] = involution
    return spec


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    """One directory for the random spec files, each example overwriting the last."""
    return tmp_path_factory.mktemp("random-specs")


@settings(max_examples=200, deadline=None)
@given(tables_ring_specs())
def test_random_ring_spec_exits_0_or_2(spec_dir, spec):
    path = spec_dir / "ring.json"
    path.write_text(json.dumps(spec))
    code, _, err = run_cli("ring", "--ring", str(path))
    assert code in (0, 2)
    assert (code == 2) == err.startswith("error: ")


# Any JSON value, for the fields that must be strings.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=4)


@st.composite
def tables_module_specs(draw):
    """Z_m over Z_n (m | n <= 4) as a tables spec with up to three cells overwritten,
    named by a random JSON value or not named."""
    n = draw(st.integers(1, 4))
    m = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    add, action = zm_over_zn_tables(m, n)
    spec = {"kind": "tables", "ring": {"kind": "Zn", "n": n},
            "add": draw(corrupted(add)), "action": draw(corrupted(action))}
    if draw(st.booleans()):
        spec["name"] = draw(json_values)
    return spec


@settings(max_examples=100, deadline=None)
@given(tables_module_specs())
def test_random_module_spec_exits_0_or_2(spec_dir, spec):
    path = spec_dir / "module.json"
    path.write_text(json.dumps(spec))
    code, _, err = run_cli("module", "--module", str(path))
    assert code in (0, 2)
    assert (code == 2) == err.startswith("error: ")


@settings(max_examples=100, deadline=None)
@given(tables_module_specs(), st.none() | json_values)
def test_random_corpus_entry_fails_only_on_a_law(spec_dir, spec, member_id):
    entry = {"module": spec} if member_id is None else {"id": member_id, "module": spec}
    path = spec_dir / "corpus.json"
    path.write_text(json.dumps([entry]))
    code, out, err = run_cli("verify", "--corpus", str(path))
    assert code in (0, 1, 2)
    assert (code == 2) == err.startswith("error: ")
    if code == 1:
        assert any(re.search(r" fail(  \{|$)", line) for line in out.splitlines())


@pytest.mark.parametrize("member_id", [[1], None])
def test_corpus_entry_id_not_a_string(tmp_path, member_id):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps([{"id": member_id,
                                 "module": {"kind": "ZmOverZn", "m": 2, "n": 2}}]))
    code, out, err = run_cli("verify", "--corpus", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "'id'" in err


def assert_exit_contract(code, out, err):
    """Exit 0, 1 or 2; an error line exactly on exit 2; exit 1 only for a relation
    that does not hold.  The modules of tables_module_specs() are cyclic (Z4's table
    is 4 cells from any Klein group's), so End is commutative and every relation
    applies."""
    assert code in (0, 1, 2)
    assert (code == 2) == err.startswith("error: ")
    if code == 1:
        assert re.search(r"\): does not hold$", out, re.M)


@settings(max_examples=100, deadline=None)
@given(tables_module_specs(), st.sampled_from(sorted(RELATIONS)), st.data())
def test_random_module_order_keeps_exit_contract(spec_dir, spec, rel, data):
    path = spec_dir / "order.json"
    path.write_text(json.dumps(spec))
    m1, m2 = (data.draw(st.integers(-1, len(spec["add"]))) for _ in range(2))
    assert_exit_contract(*run_cli("order", "--module", str(path), "--rel", rel,
                                  str(m1), str(m2)))


@settings(max_examples=100, deadline=None)
@given(tables_module_specs(), st.sampled_from(sorted(RELATIONS)))
def test_random_module_hasse_keeps_exit_contract(spec_dir, spec, rel):
    path = spec_dir / "hasse.json"
    path.write_text(json.dumps(spec))
    assert_exit_contract(*run_cli("hasse", "--module", str(path), "--rel", rel))
