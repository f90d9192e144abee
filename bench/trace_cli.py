"""Run the netval CLI under the tracer: ``trace_cli.py OUT.json ARGS...``.

The CLI's stdout, stderr and exit code are unchanged; the spans and
counters of the call go to OUT.json when it ends.
"""

import sys

from tracer import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from netval import cli

    code = cli.main(argv)
    tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
