"""Record the reference output of every benchmark operation.

    python3 perfbench/make_references.py

Runs every operation any seed can reach (tiny ones included) with the
`support_limits` under `src/` and writes `references.json`.  The file in the
repository was recorded at the commit that introduced the benchmark; a
change that claims only speed must leave every output identical, so do not
regenerate it to make a run pass.
"""
from __future__ import annotations

import json
import os

import workloads
from worker import import_package


def main() -> None:
    os.environ.pop("SUPPORT_LIMITS_THREADS", None)
    import_package()
    outputs = {op.key: workloads.execute(op) for op in workloads.all_reference_ops()}
    with open(workloads.REFERENCES, "w") as fh:
        json.dump({"outputs": outputs}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(outputs)} references to {workloads.REFERENCES.name}")


if __name__ == "__main__":
    main()
