"""Set-up time of one fresh interpreter: import unigrad, then build every
problem of a workload once from its trace descriptor.

    python3 benchmarks/probe_setup.py SRC_DIR DESCRIPTORS_JSON

prints {"setup_s": seconds} as its last line.  The clock starts before
numpy is imported, so the import cost of the whole stack is included.
"""

import json
import sys
import time


def main(argv) -> int:
    src, path = argv
    with open(path, encoding="utf-8") as fh:
        descriptors = json.load(fh)
    start = time.perf_counter()
    sys.path.insert(0, src)
    from unigrad.harness import problem_from_descriptor

    for desc in descriptors:
        problem_from_descriptor(desc)
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
