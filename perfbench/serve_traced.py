"""The traced server: ``python perfbench/serve_traced.py SPANS serve ...``.

Installs the span wrappers of :mod:`tracing` in this process, then hands the
remaining arguments to the normal ``repro`` command-line entry point.  On
SIGUSR1 it writes the spans recorded so far to ``SPANS`` (the benchmark sends
it once its clients are idle, before it stops or SIGKILLs the server)."""

import signal
import sys

from tracing import Tracer, install_store


def main() -> int:
    spans, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer("server")
    install_store(tracer)
    signal.signal(signal.SIGUSR1, lambda *_: tracer.write(spans))
    from repro.cli import main as repro_main

    return repro_main(argv)


if __name__ == "__main__":
    sys.exit(main())
