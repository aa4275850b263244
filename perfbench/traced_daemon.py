"""Run ``repro-mc`` with the daemon's layer boundaries traced.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/traced_daemon.py OUT.json serve --cores 8 ...

Installs the span wrappers of :func:`spans.install_daemon_layers`, runs
the CLI with the remaining arguments, and when the daemon has drained
and stopped writes the aggregated spans to ``OUT.json``.
"""

from __future__ import annotations

import sys

from spans import Tracer, install_daemon_layers


def main(argv: list[str]) -> int:
    out, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install_daemon_layers(tracer)
    from repro.cli import main as cli_main

    code = cli_main(cli_args)
    tracer.write(out)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
