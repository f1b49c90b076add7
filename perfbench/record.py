"""Record the stdout digests that ``run.py`` checks, into ``expected.json``.

Usage, from the root of a checkout:  python3 perfbench/record.py

The sweep request does not depend on the seed and is recorded once.  Count
and chain outputs are recorded for the default and the held-out seed, and
only after they match the independent reference in ``reference.py``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import workloads
from run import HERE, Client, reference_digests


def digests_of(client: Client, requests) -> list[str]:
    out = []
    for req in requests:
        outcome = client.launch(req.argv, None)
        if not outcome.ok:
            raise RuntimeError(f"{req.kind}: {outcome.problem}")
        out.append(outcome.digest)
    return out


def main() -> int:
    table: dict[str, dict[str, list[str]]] = {}
    with Client(Path.cwd()) as client:
        for name in workloads.WORKLOADS:
            seeds = ["any-seed"] if name == "sweep-n120" else [workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED]
            table[name] = {}
            for seed in seeds:
                requests = workloads.build(name, workloads.DEFAULT_SEED if seed == "any-seed" else seed)
                got = digests_of(client, requests)
                if seed != "any-seed" and got != reference_digests(requests):
                    raise RuntimeError(f"{name} seed {seed}: CLI output differs from the reference")
                table[name][str(seed)] = got
    path = HERE / "expected.json"
    path.write_text(json.dumps({"digests": table}, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
