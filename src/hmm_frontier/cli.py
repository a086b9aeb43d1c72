"""Command-line surface: simulation, estimation, sweeps, and probes.

Every subcommand accepts ``--config FILE`` pointing to a JSON object whose
keys match the long flag names; explicit flags override config values.
Output goes to ``--out`` (stdout when omitted).  Exit codes: 0 on success,
1 on validation errors or bad usage, 2 on infeasible constructions or
empty boxes.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from .errors import FrontierError, InfeasiblePairError, NoMemberError, ValidationError
from .estimator import SearchConfig, estimate_theta
from .experiments import (
    PAIR_KINDS,
    SweepConfig,
    lower_bound_pair,
    rate_sweep,
    slope_fit,
    sweep_rows_to_csv,
    threshold_probe,
)
from .filter_kl import kl_estimate, kl_rho_bound
from .params import ConstraintBox, PhiPsiParams, ThetaParams
from .simulate import sample_path
from .triple_law import equivalence_ratio_probe, rho


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _floats(text: str):
    return [float(x) for x in text.split(",")]


def _write(out_path, text: str) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_json(out_path, record: dict) -> None:
    _write(out_path, json.dumps(record, indent=2) + "\n")


def _load_config(args: argparse.Namespace, parser: argparse.ArgumentParser, argv) -> None:
    """Fill unset flags from the JSON config file, if one was given."""
    if not getattr(args, "config", None):
        return
    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read config {args.config}: {exc}") from exc
    explicit = {a.lstrip("-").split("=")[0].replace("-", "_") for a in argv if a.startswith("--")}
    for key, value in cfg.items():
        attr = key.replace("-", "_")
        if hasattr(args, attr) and attr not in explicit:
            setattr(args, attr, value)


def _box_from(args) -> ConstraintBox:
    return ConstraintBox(
        delta=float(args.delta),
        epsilon=float(args.epsilon),
        zeta=float(args.zeta),
        L=float(args.L),
        K=int(args.k),
    )


def _add_box_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--epsilon", type=float, default=0.2)
    p.add_argument("--zeta", type=float, default=0.1)
    p.add_argument("--L", type=float, default=0.3)
    p.add_argument("--k", type=int, default=3)


def _load_phipsi(path: str) -> PhiPsiParams:
    with open(path, encoding="utf-8") as fh:
        return PhiPsiParams.from_json(fh.read())


def build_parser() -> _Parser:
    parser = _Parser(prog="hmm-frontier")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("simulate", help="sample a hidden-chain path to CSV")
    p.add_argument("--config")
    p.add_argument("--p", type=float, default=0.2)
    p.add_argument("--q", type=float, default=0.3)
    p.add_argument("--f0", type=str, default="0.5,0.3,0.2")
    p.add_argument("--f1", type=str, default="0.2,0.3,0.5")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    p = sub.add_parser("estimate", help="fit parameters to observations")
    p.add_argument("--config")
    p.add_argument("--input", required=True, help="one symbol per line, or CSV with a y column")
    _add_box_flags(p)
    p.add_argument("--starts", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    p = sub.add_parser("rate-sweep", help="loss-vs-n sweep of the estimator")
    p.add_argument("--config")
    _add_box_flags(p)
    p.add_argument("--n-grid", type=str, default="1000,10000,100000")
    p.add_argument("--replicas", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--target", default="loss_phi2")
    p.add_argument("--resample-truths", action="store_true")
    p.add_argument("--out")

    p = sub.add_parser("kl-probe", help="MC KL between two parameter files over an n grid")
    p.add_argument("--config")
    p.add_argument("--params-a", required=True)
    p.add_argument("--params-b", required=True)
    p.add_argument("--n-grid", type=str, default="100,200,400,700,1000")
    p.add_argument("--replicas", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    p = sub.add_parser("equiv-probe", help="tensor-distance / rho ratio range over random pairs")
    p.add_argument("--config")
    _add_box_flags(p)
    p.add_argument("--pairs", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    p = sub.add_parser("lb-pair", help="construct a two-point hypothesis pair")
    p.add_argument("--config")
    p.add_argument("--kind", choices=PAIR_KINDS, default="phi1_phi3")
    p.add_argument("--n", type=int, default=10**6)
    p.add_argument("--c", type=float, default=0.01)
    _add_box_flags(p)
    p.add_argument("--out")

    p = sub.add_parser("threshold-probe", help="likelihood-ratio test on a constructed pair")
    p.add_argument("--config")
    p.add_argument("--kind", choices=PAIR_KINDS, default="phi1_phi3")
    p.add_argument("--n", type=int, default=10**5)
    p.add_argument("--c", type=float, default=0.001)
    p.add_argument("--replicas", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    _add_box_flags(p)
    p.add_argument("--out")
    return parser


def _read_observations(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
        fh.seek(0)
        if "," in first or first.strip().lower() in ("y", "x,y"):
            rows = list(csv.DictReader(fh))
            if rows and "y" in rows[0]:
                return np.array([int(r["y"]) for r in rows])
            fh.seek(0)
            return np.array([int(line.split(",")[-1]) for line in fh if line.strip()])
        return np.array([int(line) for line in fh if line.strip()])


def _run(args, argv) -> None:
    cmd = args.command
    if cmd == "simulate":
        theta = ThetaParams(p=args.p, q=args.q, f0=_floats(args.f0), f1=_floats(args.f1))
        _write(args.out, sample_path(theta, args.n, args.seed).to_csv())
    elif cmd == "estimate":
        observed = _read_observations(args.input)
        box = _box_from(args)
        theta, fit = estimate_theta(
            observed, box, SearchConfig(random_starts=args.starts, seed=args.seed)
        )
        _write_json(
            args.out,
            {
                "theta": json.loads(theta.to_json()),
                "estimate": json.loads(fit.estimate.to_json()),
                "objective": fit.objective,
                "grid_floor": fit.grid_floor,
                "starts": fit.starts,
                "converged": fit.converged,
                "init_fallback": fit.init_fallback,
            },
        )
    elif cmd == "rate-sweep":
        cfg = SweepConfig(
            box=_box_from(args),
            n_grid=tuple(int(x) for x in str(args.n_grid).split(",")),
            replicas=args.replicas,
            master_seed=args.seed,
            resample_truths=args.resample_truths,
        )
        rows = rate_sweep(cfg)
        _write(args.out, sweep_rows_to_csv(rows))
        try:
            slope, _, r2 = slope_fit(rows, args.target)
            print(f"# slope({args.target}) = {slope:.4f}  r2 = {r2:.4f}", file=sys.stderr)
        except FrontierError:
            pass
    elif cmd == "kl-probe":
        a = _load_phipsi(args.params_a)
        b = _load_phipsi(args.params_b)
        d = rho(a, b)
        grid = [int(x) for x in str(args.n_grid).split(",")]
        lines = ["n,rho,rho_sq_times_n,kl_mean,kl_stderr,ratio"]
        for n, kl in zip(grid, kl_estimate(a, b, grid, args.replicas, [int(args.seed), 0])):
            bound = kl_rho_bound(a, b, n)
            ratio = kl.mean / bound if bound > 0 else float("nan")
            lines.append(f"{n},{d!r},{bound!r},{kl.mean!r},{kl.stderr!r},{ratio!r}")
        _write(args.out, "\n".join(lines) + "\n")
    elif cmd == "equiv-probe":
        summary = equivalence_ratio_probe(_box_from(args), args.pairs, args.seed)
        _write_json(
            args.out,
            {
                "min_ratio": summary.min_ratio,
                "max_ratio": summary.max_ratio,
                "spread": summary.spread,
                "pairs_used": summary.pairs_used,
                "pairs_skipped": summary.pairs_skipped,
            },
        )
    elif cmd == "lb-pair":
        pair = lower_bound_pair(args.kind, args.n, _box_from(args), args.c)
        _write(args.out, pair.to_json() + "\n")
    elif cmd == "threshold-probe":
        probe = threshold_probe(
            args.kind, _box_from(args), args.n, args.c, args.replicas, args.seed
        )
        _write_json(
            args.out,
            {
                "kind": probe.kind,
                "n": probe.n,
                "c": probe.c,
                "rho": probe.rho_ab,
                "kl_mean": probe.kl_mean,
                "kl_stderr": probe.kl_stderr,
                "test_error": probe.test_error,
            },
        )
    else:
        raise _UsageError("missing subcommand")


def cli_main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            raise _UsageError("missing subcommand")
        _load_config(args, parser, argv)
        _run(args, argv)
        return 0
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except (InfeasiblePairError, NoMemberError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except FrontierError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
