"""Fresh-process probe: run one pass of a workload and print, as one JSON
line, the process's peak resident memory.

    python3 bench/probe.py <workload> <seed>
"""

from __future__ import annotations

import json
import resource
import sys

from checkout import require_source


def main(argv) -> int:
    workload, seed = argv[1], int(argv[2])
    require_source()
    import workloads
    items = workloads.build(workload, seed)
    workloads.run_pass(items)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"peak_rss_mb": rss_kib / 1024}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
