"""Run one modorder command under the span tracer, for traced cli passes.

    python3 perfbench/cli_boot.py SPANS_FILE ARG...

Stdout and the exit code are those of ``modorder ARG...``; the spans and
relation counters are written to SPANS_FILE as JSON when the command ends.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracing import Tracer, resolve_hom_info  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from modorder import cli
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.uninstall()
        resolve_hom_info(tracer.spans)
        with open(spans_path, "w") as fh:
            json.dump({"spans": tracer.spans, "queries": tracer.queries,
                       "holds": tracer.holds}, fh)


if __name__ == "__main__":
    sys.exit(main())
