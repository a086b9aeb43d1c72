"""Golden outputs: the seed contract as bytes.

``tests/golden/manifest.json`` lists small CLI runs, each a command line
after ``hmm-frontier``.  Each run's stdout,
stderr and ``--out`` file are stored next to it as ``<name>.stdout``,
``<name>.stderr`` and ``<name>.out`` (a missing file means empty).  The
runs share one temporary directory, written with the manifest's ``files``
first and used in manifest order, so a later run may read what an earlier
one wrote; ``{tmp}`` in an argument stands for that directory and is put
back in place of it in every output.  Timing (the ``wall_ms`` column) is
masked.

A change that alters a golden on purpose rewrites them with
``python tests/golden/regenerate.py`` and names the changed runs.
"""

from __future__ import annotations

import csv
import io
import json
import shlex
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from hmm_frontier.cli import cli_main

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = GOLDEN / "manifest.json"
STREAMS = ("stdout", "stderr", "out")


def load_manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def mask(text: str) -> str:
    """``text`` with the values of a CSV ``wall_ms`` column set to ``*``."""
    if "wall_ms" not in text.partition("\n")[0]:
        return text
    header, *rows = csv.reader(io.StringIO(text))
    col = header.index("wall_ms")
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [header] + [row[:col] + ["*"] + row[col + 1:] for row in rows]
    )
    return buf.getvalue()


def run_all(manifest: dict) -> dict:
    """Name -> {"exit", "stdout", "stderr", "out"} for every run, in manifest order."""
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in manifest["files"].items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        for case in manifest["runs"]:
            argv = shlex.split(case["argv"].replace("{tmp}", tmp))
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli_main(argv)
            result = {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "out": ""}
            if "out" in case:
                result["out"] = Path(tmp, case["out"]).read_text(encoding="utf-8")
            results[case["name"]] = {
                key: value if key == "exit" else mask(value.replace(tmp, "{tmp}"))
                for key, value in result.items()
            }
    return results


def stored(name: str, stream: str) -> str:
    path = GOLDEN / f"{name}.{stream}"
    return path.read_text(encoding="utf-8") if path.exists() else ""


def versions() -> dict:
    return {"numpy": np.__version__}


def test_outputs_match_goldens():
    manifest = load_manifest()
    results = run_all(manifest)
    changed = [
        f"{case['name']}.{key}"
        for case in manifest["runs"]
        for key in ("exit", *STREAMS)
        if results[case["name"]][key]
        != (case["exit"] if key == "exit" else stored(case["name"], key))
    ]
    recorded = {key: manifest[key] for key in versions()}
    assert not changed, (
        f"outputs differ from tests/golden: {changed} "
        f"(recorded with {recorded}, running {versions()})"
    )
