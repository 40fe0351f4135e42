"""Traced stand-in for ``python -m ospkostka.cli``.

Usage: python cli_shim.py SPANS_OUT CLI_ARGS...

Installs the span recorder, runs ``ospkostka.cli.main`` on CLI_ARGS, writes
the spans to SPANS_OUT and exits with main's exit code.
"""

import sys

from tracer import Recorder


def main():
    spans_out, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    recorder.install()
    from ospkostka import cli

    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        recorder.dump(spans_out)
    sys.exit(code)


if __name__ == "__main__":
    main()
