"""Every suite member of the benchmark's answer file still gets its recorded answers.

``perfbench/expected.json`` (read, never written, here) holds for each member the digest
of its law reports and of its twelve relation matrices with their witnesses.  The check is
the benchmark's own (``workloads.run_member``, ``law_digest``, ``matrix_check``, which
replays every positive verdict), run over all members, so that a wrong answer fails here
before a benchmark run reads it as ``outputs_incorrect``.
"""

import importlib.util
import json
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_member_gives_its_recorded_answers():
    wl = _workloads()
    expected = json.loads((PERFBENCH / "expected.json").read_text())["members"]
    assert len(expected) == 271
    wrong = []
    for member, answers in expected.items():
        ctx, reports = wl.run_member(member)
        digest, bad = wl.matrix_check(ctx)
        if (wl.law_digest(reports) != answers["laws"] or digest != answers["matrices"] or bad
                or any(r.outcome == "fail" for r in reports)):
            wrong.append((member, bad))
    assert wrong == []
