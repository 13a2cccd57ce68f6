"""Set-up probe: a fresh process that imports evomcts and runs the CLI
up to the moment its first search would begin, then stops.

    python3 setup_probe.py SRC WORKLOAD OUTDIR

Prints one JSON line: ``first_search`` (time.monotonic() when the first
search was called, comparable with the parent's clock) and ``import_s``
(seconds spent importing evomcts and its CLI).
"""

import json
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, import_evomcts


class FirstSearch(BaseException):
    """Raised in place of the first search; not caught by cli.main."""


def stop(*args, **kwargs):
    raise FirstSearch


def main(argv: list) -> int:
    src, workload, out = argv
    t0 = time.perf_counter()
    cli = import_evomcts(Path(src))
    import_s = time.perf_counter() - t0

    cli.run_search = cli.run_siea_search = stop
    try:
        rc = cli.main(WORKLOADS[workload].argv(0, out))
    except FirstSearch:
        first_search = time.monotonic()
    else:
        print(f"cli.main exited {rc} before its first search", file=sys.stderr)
        return 1
    print(json.dumps({"first_search": first_search, "import_s": import_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
