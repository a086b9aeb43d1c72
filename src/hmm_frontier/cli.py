"""Command-line surface: simulation, estimation, sweeps, and probes.

All outside input reaches typed values through argparse or through one
file reader, ``_read``.  Every subcommand accepts ``--config FILE``, a JSON
object whose keys are long flag names (``n-grid`` or ``n_grid``) and whose
values are what the flag takes: JSON numbers, strings, lists (joined with
commas) and ``true``/``false`` for switches (``false`` leaves the switch
off).  The keys become flag tokens placed before the command line and
parsed by the same parser, so config values are type-checked like flags,
an unknown key exits 1, and explicit flags win, abbreviations included.
``--input`` and ``--params-a/-b`` must be given on the command line.
``--input`` holds one symbol per line, a CSV with a ``y`` header column, or
a headerless CSV whose last column is read; ``--params-a/-b`` hold
``{"phi", "psi1", "psi2"}`` or native ``{"p", "q", "f0", "f1"}`` JSON with
positive emissions.  Errors name the file, and a bad ``--input`` row its line.
``--input`` is parsed in one ``np.loadtxt`` pass; text that pass refuses
(blank rows, quotes) is read line by line, which names the first bad line.

Output goes to ``--out`` (stdout when omitted).  Exit codes: 0 on success,
1 on validation errors or bad usage (every input error, with an ``error:``
line on stderr), 2 on infeasible constructions or empty boxes.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys

import numpy as np

from .errors import FrontierError, InfeasiblePairError, NoMemberError, ValidationError
from .estimator import estimate_theta
from .experiments import (
    PAIR_KINDS,
    SWEEP_COLUMNS,
    lower_bound_pair,
    rate_sweep,
    slope_fit,
    sweep_rows_to_csv,
    threshold_probe,
)
from .filter_kl import kl_estimate, kl_rho_bound, require_positive_emissions
from .params import ConstraintBox, PhiPsiParams, ThetaParams, theta_to_phipsi
from .simulate import sample_path
from .triple_law import equivalence_ratio_probe, rho


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _list_of(item):
    """argparse type: a comma-separated list of ``item`` values."""

    def parse(text: str) -> list:
        return [item(x) for x in text.split(",")]

    parse.__name__ = f"{item.__name__} list"
    return parse


def _seed(text: str) -> int:
    """argparse type: a non-negative integer, the seeds numpy's SeedSequence takes."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer: {text!r}")
    return value


def _read(path: str, parse):
    """``parse`` the open file; any failure is a ValidationError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh)
    except (OSError, ValueError, LookupError, TypeError, ValidationError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ValidationError(f"cannot read {path}: {detail}") from exc


def _write(out_path, text: str) -> None:
    """``text`` to ``out_path`` (stdout when empty); a failed write is a ValidationError."""
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {out_path}: {exc}") from exc


def _write_json(out_path, record: dict) -> None:
    _write(out_path, json.dumps(record, indent=2) + "\n")


def _config_tokens(fh, dests) -> list:
    """Flag tokens for the JSON config object; ``dests`` are the command's flags."""
    cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise TypeError("config must be a JSON object")
    tokens = []
    for key, value in cfg.items():
        if key.replace("-", "_") not in dests:
            raise ValueError(f"unknown key {key!r}")
        flag = "--" + key.replace("_", "-")
        items = value if isinstance(value, list) else [value]
        if not all(isinstance(x, (str, int, float)) for x in items):
            raise TypeError(f"{key}: {value!r} is not a flag value")
        if value is True:
            tokens.append(flag)
        elif value is not False:
            tokens.append(f"{flag}={','.join(map(str, items))}")
    return tokens


def _box_from(args) -> ConstraintBox:
    return ConstraintBox(
        delta=args.delta, epsilon=args.epsilon, zeta=args.zeta, L=args.L, K=args.k
    )


def _add_box_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--epsilon", type=float, default=0.2)
    p.add_argument("--zeta", type=float, default=0.1)
    p.add_argument("--L", type=float, default=0.3)
    p.add_argument("--k", type=int, default=3)


def _add_pair_flags(p: argparse.ArgumentParser) -> None:
    """--kind, --n and --c: a bare lb-pair builds the pair a bare threshold-probe tests."""
    p.add_argument("--kind", choices=PAIR_KINDS, default="phi1_phi3")
    p.add_argument("--n", type=int, default=10**5)
    p.add_argument("--c", type=float, default=0.001)


def _params(fh) -> PhiPsiParams:
    """Frontier-coordinate or native ``{"p", "q", "f0", "f1"}`` JSON; emissions must be > 0."""
    text = fh.read()
    native = "phi" not in json.loads(text)
    pp = theta_to_phipsi(ThetaParams.from_json(text)) if native else PhiPsiParams.from_json(text)
    require_positive_emissions(pp)
    return pp


_LOADTXT = {"delimiter": ",", "dtype": np.int64, "comments": None, "quotechar": '"', "ndmin": 1}


def _has_data(line: str) -> bool:
    """Whether some CSV field of ``line`` is not blank (CSV rules only with quotes)."""
    fields = "".join(next(csv.reader([line]))) if '"' in line else line.replace(",", "")
    return bool(fields.strip())


def _line_reader(rows) -> np.ndarray:
    """``_observations`` line by line: blank rows are skipped and the first
    row that does not parse is named by its line in the file."""
    lines = [(i, line) for i, line in enumerate(rows, 1) if _has_data(line)]
    column = -1
    header = next(csv.reader([lines[0][1]]), []) if lines else []
    if "y" in header:
        column = header.index("y")
        del lines[0]
    if not lines:
        return np.empty(0, dtype=np.int64)
    try:
        return np.loadtxt([line for _, line in lines], usecols=column, **_LOADTXT)
    except ValueError:
        # only on failure: find the first data row that does not parse alone
        for i, line in lines:
            try:
                np.loadtxt([line], usecols=column, **_LOADTXT)
            except ValueError:
                where = "the y column" if column >= 0 else "the last column"
                raise ValueError(f"line {i}: no integer symbol in {where}: {line.strip()!r}")
        raise


def _observations(fh) -> np.ndarray:
    """One symbol per line, CSV with a ``y`` header column, or headerless CSV
    read by its last column; rows whose CSV fields are all blank are skipped.

    One ``np.loadtxt`` call parses the text.  It skips empty lines and fails
    on every other blank row; then, and for text it must not take,
    ``_line_reader`` reads the text.
    """
    # chunks of the size line iteration reads, so a decoding error names the same position
    text = "".join(iter(lambda: fh.read(8192), ""))
    first = text[: text.find("\n") + 1 or len(text)]
    header = next(csv.reader([first]), [])
    column = header.index("y") if "y" in header else -1
    # np.loadtxt lets a quoted field span lines, would skip an empty line
    # before the header and warns on no data: such text is read line by line
    body = len(first) if column >= 0 else 0
    one_pass = '"' not in text and first != "\n" and bool(re.compile(r"\S").search(text, body))
    rows = io.StringIO(text)
    del text  # the StringIO holds its own copy
    if one_pass:
        try:
            return np.loadtxt(rows, usecols=column, skiprows=int(column >= 0), **_LOADTXT)
        except ValueError:
            rows.seek(0)
    return _line_reader(rows)


def build_parser() -> _Parser:
    parser = _Parser(prog="hmm-frontier")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("simulate", help="sample a hidden-chain path to CSV")
    p.add_argument("--p", type=float, default=0.2)
    p.add_argument("--q", type=float, default=0.3)
    p.add_argument("--f0", type=_list_of(float), default="0.5,0.3,0.2")
    p.add_argument("--f1", type=_list_of(float), default="0.2,0.3,0.5")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=_seed, default=0)

    p = sub.add_parser("estimate", help="fit parameters to observations")
    p.add_argument("--input", required=True, help="one symbol per line, or CSV (y or last column)")
    _add_box_flags(p)
    p.add_argument("--starts", type=int, default=3)
    p.add_argument("--seed", type=_seed, default=0)

    p = sub.add_parser("rate-sweep", help="loss-vs-n sweep of the estimator")
    _add_box_flags(p)
    p.add_argument("--n-grid", type=_list_of(int), default="1000,10000,100000")
    p.add_argument("--replicas", type=int, default=20)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument(
        "--target", choices=[c for c in SWEEP_COLUMNS if c.startswith("loss_")],
        default="loss_phi2",
    )
    p.add_argument("--resample-truths", action="store_true")

    p = sub.add_parser("kl-probe", help="MC KL between two parameter files over an n grid")
    p.add_argument("--params-a", required=True)
    p.add_argument("--params-b", required=True)
    p.add_argument("--n-grid", type=_list_of(int), default="100,200,400,700,1000")
    p.add_argument("--replicas", type=int, default=200)
    p.add_argument("--seed", type=_seed, default=0)

    p = sub.add_parser("equiv-probe", help="tensor-distance / rho ratio range over random pairs")
    _add_box_flags(p)
    p.add_argument("--pairs", type=int, default=1000)
    p.add_argument("--seed", type=_seed, default=0)

    p = sub.add_parser("lb-pair", help="construct a two-point hypothesis pair")
    _add_pair_flags(p)
    _add_box_flags(p)

    p = sub.add_parser("threshold-probe", help="likelihood-ratio test on a constructed pair")
    _add_pair_flags(p)
    p.add_argument("--replicas", type=int, default=500)
    p.add_argument("--seed", type=_seed, default=0)
    _add_box_flags(p)

    for p in sub.choices.values():
        p.add_argument("--config")
        p.add_argument("--out")
    return parser


def _run(args) -> None:
    cmd = args.command
    if cmd == "simulate":
        theta = ThetaParams(p=args.p, q=args.q, f0=args.f0, f1=args.f1)
        _write(args.out, sample_path(theta, args.n, args.seed).to_csv())
    elif cmd == "estimate":
        observed = _read(args.input, _observations)
        theta, fit = estimate_theta(
            observed, _box_from(args), random_starts=args.starts, seed=args.seed
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
                "nfev": fit.nfev,
                "best_start": fit.best_start,
            },
        )
    elif cmd == "rate-sweep":
        rows = rate_sweep(
            _box_from(args), args.n_grid, args.replicas, args.seed,
            resample_truths=args.resample_truths,
        )
        _write(args.out, sweep_rows_to_csv(rows))
        try:
            slope, _, r2 = slope_fit(rows, args.target)
            print(f"# slope({args.target}) = {slope:.4f}  r2 = {r2:.4f}", file=sys.stderr)
        except FrontierError as exc:
            print(f"# slope({args.target}) not fitted: {exc}", file=sys.stderr)
    elif cmd == "kl-probe":
        a = _read(args.params_a, _params)
        b = _read(args.params_b, _params)
        d = rho(a, b)
        grid = args.n_grid
        lines = ["n,rho,rho_sq_times_n,kl_mean,kl_stderr,ratio"]
        for n, kl in zip(grid, kl_estimate(a, b, grid, args.replicas, [args.seed, 0])):
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
                "candidates": summary.candidates,
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
        if not args.command:
            raise _UsageError("missing subcommand")
        if args.config:
            dests = vars(args).keys() - {"command"}
            config = _read(args.config, lambda fh: _config_tokens(fh, dests))
            args = parser.parse_args([args.command, *config, *argv[1:]])
        _run(args)
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
