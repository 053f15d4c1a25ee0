"""Record the output of every op any seed can draw into goldens.json.

    python3 perfbench/record_goldens.py

Run it from the root of a bcprof checkout whose outputs are known to be
right; the benchmark then fails any execution whose output differs.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import bcprof.cli
    from perfbench.checks import GOLDENS, verify_summary
    from perfbench.run import OUT, git_sha, lru_caches
    from perfbench.workloads import WORKLOADS, run_cli, write_inputs

    os.environ["BCPROF_THREADS"] = str(len(os.sched_getaffinity(0)))
    caches = lru_caches()
    goldens = {"git_sha": git_sha(ROOT), "outputs": {}, "experiment_csv": {}, "verify_cases": {}}
    OUT.mkdir(exist_ok=True)
    input_dir = Path(tempfile.mkdtemp(prefix="goldens-", dir=OUT))
    try:
        for wl in WORKLOADS.values():
            pool = wl.pool()
            paths = write_inputs(pool, input_dir)
            for op in pool:
                for cache in caches:
                    cache.cache_clear()
                ex = run_cli(bcprof.cli.main, op, paths)
                if ex.code != 0:
                    print(f"{op.key}: {ex.error}", file=sys.stderr)
                    return 1
                if op.command == "experiment":
                    goldens["experiment_csv"][op.key] = ex.text
                elif op.command == "verify":
                    status, cases = verify_summary(ex.text)
                    if status != "pass" or cases == 0:
                        print(f"{op.key}: {status} with {cases} cases", file=sys.stderr)
                        return 1
                    goldens["verify_cases"][op.argv[-1]] = cases
                else:
                    goldens["outputs"][op.key] = {"sha256": ex.digest, "bytes": ex.nbytes}
                print(f"{ex.seconds:8.3f} s  {op.key}")
    finally:
        shutil.rmtree(input_dir, ignore_errors=True)
    with open(GOLDENS, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
