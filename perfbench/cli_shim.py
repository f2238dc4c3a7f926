"""``python -m qutrit3d`` with the outside-in tracer installed.

Usage: python3 cli_shim.py SPANS_FILE ARG...
Runs ``qutrit3d.cli.main(ARG...)`` inside an "op" span and writes the
spans to SPANS_FILE when the command ends, whatever its exit code.
"""

import sys

import qutrit3d
import qutrit3d.cli

import tracer as tracing


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer, qutrit3d)
    tracing.wrap_json_dumps(tracer, qutrit3d.cli, "cli.json.dumps")
    try:
        return tracer.wrap("op", qutrit3d.cli.main)(argv)
    finally:
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main())
