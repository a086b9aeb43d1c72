"""Record a ``BENCH_<pr>.json``: the benchmark on a parent revision against a change.

Each revision is exported clean (``git archive``; the change may also be
``.``, the working tree's tracked and unignored files).  Then, for each
seed, every workload runs ``perfbench/run.py --trace 0`` once on each side,
one run at a time, the side that runs first alternating with the seed
(parent first on even pair index).  One ``--trace 1`` run per side and
workload adds the per-layer metrics.  Run from the repository root:

    python tests/bench_record.py --parent HEAD~1 --change . --pr 11 \\
        --workloads sweep=5,probe=3,long-path=3,equiv=3

The file is rewritten after every pair, so an interrupted run leaves the
pairs it finished.  Its layout is that of ``BENCH_8.json``: ``what``,
``command``, ``method``, ``host``, ``revisions`` and ``workloads``, each
workload with its ``parent`` and ``change`` runs and summaries, a
``comparison`` of the end-to-end metrics and the ``traced`` runs.  The
file name keeps pytest from collecting it.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0"
METHOD = (
    "For each seed, each workload runs once on each revision, one run at a time, in a clean "
    "export of each revision; the side that runs first alternates with the seed (parent first "
    "on even pair index). Quartiles are numpy linear-interpolation percentiles over the runs. "
    "throughput_per_s and setup_s are scaled to the nominal host by the run's host reference "
    "(perfbench/hostspeed.py); the unscaled figures are kept per run. 'traced' holds one "
    "--trace 1 run per side and workload (per-layer metrics; its end-to-end timings are not "
    "comparable)."
)
SUMMARY = ("throughput_per_s", "peak_rss_mb", "setup_s", "host_reference_s", "host_scale")
BETTER = {"throughput_per_s": "higher", "peak_rss_mb": "lower", "setup_s": "lower"}


def git(*args) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def export(rev: str, dest: Path) -> str:
    """Write a clean copy of ``rev`` (``.`` for the working tree) to ``dest``; returns its name."""
    dest.mkdir(parents=True)
    if rev != ".":
        tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))).extractall(dest)
        return git("rev-parse", rev).decode().strip()
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0")
    for name in filter(None, (n.decode() for n in listed)):
        if (ROOT / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)
    return f"the working tree on {git('rev-parse', 'HEAD').decode().strip()}"


def measure(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``run.py`` call, parsed from its printed lines."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=600, check=False,
    )
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"seed": seed, "exit": proc.returncode, "error": proc.stderr.strip()[-500:]}
    record = {"seed": seed, "exit": proc.returncode, "attempted": result["attempted"],
              "failed": result["failed"]}
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        return {**record, "metrics": metrics}
    text = proc.stdout
    host = re.search(r"host reference (\S+) s, .*: scale (\S+)", text)
    unscaled = re.search(r"unscaled (\S+) (\S+) 1/s, setup_s (\S+) s", text)
    return {
        **record,
        "ops": int(re.search(r"\bops (\d+)", text).group(1)),
        "throughput_per_s": metrics["throughput_per_s"],
        "peak_rss_mb": metrics["peak_rss_mb"],
        "setup_s": metrics["setup_s"],
        "host_reference_s": float(host.group(1)),
        "host_scale": float(host.group(2)),
        f"unscaled_{unscaled.group(1)}": float(unscaled.group(2)),
        "unscaled_setup_s": float(unscaled.group(3)),
    }


def quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def side(runs) -> dict:
    ok = [r for r in runs if "ops" in r]
    summary = {m: quartiles([r[m] for r in ok]) for m in SUMMARY} if ok else {}
    return {"seeds": [r["seed"] for r in runs], "summary": summary, "runs": runs}


def comparison(parent, change) -> dict:
    """Per end-to-end metric: pair wins of the change and the shift of the median."""
    pairs = [(p, c) for p, c in zip(parent, change) if "ops" in p and "ops" in c]
    out = {}
    for metric, better in BETTER.items():
        if not pairs:
            break
        p = np.array([a[metric] for a, _ in pairs])
        c = np.array([b[metric] for _, b in pairs])
        q = quartiles(p)
        diff = float(np.median(c)) - q["median"]
        out[metric] = {
            "better": better,
            "change_wins": int(((c > p) if better == "higher" else (c < p)).sum()),
            "pairs": len(pairs),
            "median_change_rel": diff / q["median"],
            "parent_iqr": q["q3"] - q["q1"],
            "median_diff": diff,
        }
    return out


def host() -> dict:
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30
    return {"cpus": os.cpu_count(), "ram_gb": round(ram, 1), "python": platform.python_version(),
            "numpy": np.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", default=".", help="git revision, or . for the working tree")
    parser.add_argument("--pr", required=True, help="the N of BENCH_N.json")
    parser.add_argument("--workloads", default="sweep=3,probe=3,long-path=3,equiv=3",
                        help="comma-separated workload=pairs")
    parser.add_argument("--seed0", type=int, default=1101, help="seed of pair 0")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--no-trace", action="store_true", help="skip the --trace 1 runs")
    args = parser.parse_args(argv)
    plan = {w: int(n) for w, _, n in (item.partition("=") for item in args.workloads.split(","))}
    out_path = ROOT / f"BENCH_{args.pr}.json"

    with tempfile.TemporaryDirectory(prefix="bench-record-") as tmp:
        trees = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
        record = {
            "what": "End-to-end benchmark, parent commit against this change, alternated per seed",
            "command": COMMAND.format(seconds=f"{args.seconds:g}"),
            "method": METHOD,
            "host": host(),
            "revisions": {
                "parent": export(args.parent, trees["parent"]),
                "change": export(args.change, trees["change"]),
            },
            "workloads": {w: {"parent": [], "change": []} for w in plan},
        }

        def write():
            doc = dict(record, workloads={
                w: {
                    "parent": side(runs["parent"]),
                    "change": side(runs["change"]),
                    "comparison": comparison(runs["parent"], runs["change"]),
                    **({"traced": runs["traced"]} if "traced" in runs else {}),
                }
                for w, runs in record["workloads"].items()
            })
            out_path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")

        for k in range(max(plan.values())):
            seed = args.seed0 + k
            for workload, pairs in plan.items():
                if k >= pairs:
                    continue
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for name in order:
                    run = measure(trees[name], workload, seed, args.seconds, 0)
                    run = {"seed": seed, "ran_first": name == order[0], **run}
                    record["workloads"][workload][name].append(run)
                    print(f"{workload} {name} seed {seed}: {run.get('throughput_per_s')}",
                          file=sys.stderr, flush=True)
                write()
        if not args.no_trace:
            seed = args.seed0 + max(plan.values())
            for workload in plan:
                record["workloads"][workload]["traced"] = {
                    name: measure(trees[name], workload, seed, args.seconds, 1)
                    for name in ("parent", "change")
                }
                write()
    print(out_path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
