"""Record the exit code and stdout digest of every fixed cli-docs command.

Run from the root of a source checkout, on the commit whose output is the
contract:

    python3 bench/record_digests.py

It rewrites bench/cli_digests.json. The cli-docs workload counts any later
difference in exit code or stdout bytes as a failed operation.
"""

from __future__ import annotations

import json
import os
import sys

import run
from workloads import DIGESTS, digest, fixed_commands, run_cli, write_fixed_documents


def main() -> int:
    sys.path.insert(0, str(run.SOURCE))
    os.chdir(run.ROOT)
    pc = run.fresh_program()
    docs = run.WORK / "docs"
    write_fixed_documents(pc, docs)
    recorded = {}
    for argv in fixed_commands(docs.relative_to(run.ROOT).as_posix()):
        code, stdout = run_cli(pc, argv)
        if str(run.ROOT) in stdout or ".bench_work" in stdout:
            raise SystemExit(f"{' '.join(argv)} prints a path; its digest would not be portable")
        recorded[" ".join(argv)] = [code, digest(stdout)]
    DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} commands in {DIGESTS.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
