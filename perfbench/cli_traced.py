"""Traced form of `python -m ifrlag`: times the import, then runs the CLI
under the span recorder and writes the spans to a JSON file.

    python perfbench/cli_traced.py SPANS.json fit-intervals --config CONFIG

ifrlag must be importable (the benchmark puts src/ on PYTHONPATH). The
exit code is the CLI's.
"""
import sys
import time

if __name__ == "__main__":
    start = time.perf_counter()
    import ifrlag.cli
    import_s = time.perf_counter() - start

    import json

    from spans import Tracer

    tracer = Tracer()
    tracer.install(op=0)
    try:
        code = ifrlag.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
    payload = tracer.child_payload()
    payload["counts"]["import.s"] = import_s
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    sys.exit(code)
