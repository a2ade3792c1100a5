"""Run one ``sobolev-lab`` CLI invocation with the layer wrappers installed.

Usage: python cli_traced.py SPAN_FILE -- <cli arguments>

The CLI prints exactly what ``python -m sobolev_lab.cli`` would print. When
it returns, the spans, the absent layers and the lru_cache misses of this
fresh process are written to SPAN_FILE as one JSON object.
"""

from __future__ import annotations

import json
import sys


def main(argv: list) -> int:
    span_file, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        sys.stderr.write(__doc__)
        return 2

    import layers
    from sobolev_lab import cli
    from tracing import Tracer

    tracer = Tracer()
    tracer.task_id = 0
    misses0 = layers.cache_info()
    layers.install(tracer)
    try:
        code = cli.main(cli_args)
    finally:
        tracer.restore()
    misses = layers.cache_deltas(misses0, layers.cache_info())
    with open(span_file, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "absent": sorted(tracer.absent), "misses": misses}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
