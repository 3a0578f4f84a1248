"""Run one riemsvp CLI command under the span tracer.

Usage: python3 perfbench/cli_child.py SPANS.npz <riemsvp arguments...>

Behaves like ``python -m riemsvp <arguments>`` (same output and exit code)
and writes the command's spans to SPANS.npz, including the import of the
CLI module as ``cli.import``.  ``riemsvp`` must be importable (PYTHONPATH).
"""

import sys
import time


def main() -> int:
    dump, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import riemsvp.cli
    t1 = time.perf_counter()
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    tracer.record("cli.import", t0, t1)
    tracer.on = True
    try:
        return riemsvp.cli.main(argv)
    finally:
        tracer.on = False
        tracer.dump(dump)


if __name__ == "__main__":
    sys.exit(main())
