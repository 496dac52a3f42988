"""Child side of a traced `potentops` command.

Usage: python3 cli_shim.py TRACE_OUT [potentops arguments...]

Imports potentops.cli, installs the tracing wrappers, runs cli.main on the
arguments, writes the per-layer totals and spans to TRACE_OUT, and exits with
main's return code.
"""

import json
import sys

import potentops.cli

from tracing import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.keep_spans = True
    tracer.install()
    try:
        return potentops.cli.main(argv)
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"totals": tracer.take_totals(), "spans": tracer.take_spans(),
                       "missing": tracer.missing}, fh)


if __name__ == "__main__":
    sys.exit(main())
