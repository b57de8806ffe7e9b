"""Start ``repro.serve`` with the benchmark's span wrappers installed.

Usage::

    python bench/serve_launcher.py SPANS_PATH [repro.serve arguments]

The wrappers go in before ``repro.serve.main`` runs, so every request the
server handles is traced; the spans are written to ``SPANS_PATH`` when the
server stops (SIGINT).
"""

from __future__ import annotations

import sys

import tracer


def main(argv) -> int:
    spans_path, serve_argv = argv[0], argv[1:]
    recorder = tracer.Recorder()
    tracer.install(recorder, serve=True)
    from repro import serve

    try:
        return serve.main(serve_argv)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
