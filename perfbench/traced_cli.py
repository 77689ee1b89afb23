"""Run one ``domiperf`` CLI command in this process with spans installed.

    python3 perfbench/traced_cli.py SPANS_OUT verify --order 7 --suite all

The command's stdout and exit code are those of ``domiperf``; the spans go to
SPANS_OUT as JSON when the command returns.  Run with DOMIPERF_WORKERS=1 so
that no span is lost in a pool worker.
"""

import os
import sys

here = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(here), "src"), here]

import spans  # noqa: E402
from domiperf import cli  # noqa: E402


def main(argv: list[str]) -> int:
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        return cli.main(argv[1:])
    finally:
        sys.stdout.flush()
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
