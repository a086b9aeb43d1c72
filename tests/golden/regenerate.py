"""Rewrite the golden outputs in this directory from the current code.

Run from the repository root after a change that alters seeded output on
purpose:

    PYTHONPATH=src python tests/golden/regenerate.py

It reruns every run in ``manifest.json``, rewrites the ``<name>.stdout``,
``<name>.stderr`` and ``<name>.out`` files (an empty stream has no file),
records each exit code and the numpy version in the manifest,
and prints the runs whose outputs changed.  Those are the runs a change
must name and explain.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_golden import GOLDEN, MANIFEST, STREAMS, load_manifest, run_all, stored, versions  # noqa: E402


def main() -> None:
    manifest = load_manifest()
    results = run_all(manifest)
    changed = []
    for case in manifest["runs"]:
        result = results[case["name"]]
        if case.get("exit") != result["exit"]:
            changed.append(f"{case['name']}.exit")
        case["exit"] = result["exit"]
        for stream in STREAMS:
            path = GOLDEN / f"{case['name']}.{stream}"
            if stored(case["name"], stream) != result[stream]:
                changed.append(path.name)
            if result[stream]:
                path.write_text(result[stream], encoding="utf-8")
            elif path.exists():
                path.unlink()
    manifest.update(versions())
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    print("changed:", ", ".join(changed) if changed else "none")


if __name__ == "__main__":
    main()
