"""Regenerate reference.json: the main-phase outputs of every input variant.

    python3 perfbench/make_reference.py [workload ...]

Run it only when a workload's inputs change, never to make a check pass.
Only the named workloads are recomputed; the others keep their entries.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main(names) -> None:
    path = workloads.REFERENCE_PATH
    refs = json.loads(path.read_text()) if path.exists() else {}
    for name in names:
        wl = workloads.WORKLOADS[name]
        refs[name] = {}
        for variant in range(workloads.VARIANTS):
            state = wl.build(variant)
            refs[name][str(variant)] = wl.reference(state, wl.main(state))
            print(name, variant, flush=True)
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:] or [n for n, w in workloads.WORKLOADS.items()
                          if hasattr(w, "reference")])
