"""Run one ncjoin CLI command in-process under the tracer and print its counts.

    python3 perfbench/trace_cli.py ornstein --system corpus:c3 --window 0..16

Prints one JSON object: the command's exit code and the number of calls per
layer.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ncjoin import cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    try:
        _, code = cli.run(argv)
    finally:
        tracer.uninstall()
    calls = Counter(span.layer for span in tracer.spans)
    calls.update(tracer.counts)
    print(json.dumps({"exit_code": code, "calls": dict(sorted(calls.items()))}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
