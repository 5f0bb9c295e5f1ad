"""Record the reference outputs that every benchmark run compares against.

    python3 benchmarks/record_reference.py

For each workload this runs the reference round (seed REF_SEED) with
plain CorpusSpec corpora and writes every report field except runtime_ms,
and the deterministic diagnostics of the demos, to reference.json together
with the Python and numpy versions.  A change that re-records the file must
say why.
"""

from __future__ import annotations

import json
import os
import sys

from run import PINNED_THREADS


def main() -> int:
    # pinned before numpy loads, as in every benchmark worker: a threaded dot
    # product sums in another order
    os.environ.update(PINNED_THREADS)
    import worker
    import workloads

    mk = worker.import_martkit()
    env = worker.environment()
    data = {
        "seed": workloads.REF_SEED,
        "python": env["python"],
        "numpy": env["numpy"],
        "workloads": {name: workloads.make(name, mk, {}).record_reference() for name in workloads.WORKLOADS},
    }
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
