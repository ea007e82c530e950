"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data or validation error,
3 verification failure.  ``--csv PATH`` writes machine-readable output
with '.' as the decimal separator and 17 significant digits; given the
same inputs and seed the bytes are identical across runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterable

from . import __version__
from .concentration import (
    EUCLIDEAN,
    HAMMING,
    SOURCES,
    build_mixing_matrices,
    delta_inf_norm,
    gamma_l2_norm,
    tail_bound,
)
from .mixing import eta_report
from .model import (
    EnumerationLimitError,
    contraction_coefficient,
    enumeration_cap,
    sample_paths,
)
from .modelfile import ModelFileError, parse_model_file, random_model, serialize_model
from .treegraph import TreeStructureError
from .verification import run_verification

T_GRID_DEFAULT = (0.05, 0.1, 0.2, 0.3, 0.5)

# --source NAME: each source of the ladder by its name without "-bound".
_SOURCE_NAMES = {source.removesuffix("-bound"): source for source in SOURCES}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _positive_int(raw: str) -> int:
    try:
        val = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{raw!r} is not an integer") from None
    if val < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {val}")
    return val


def _seed_int(raw: str) -> int:
    try:
        val = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{raw!r} is not an integer") from None
    if not 0 <= val < 2**64:
        raise argparse.ArgumentTypeError("seed must be in [0, 2**64)")
    return val


def _write_csv(path: str | None, header: list[str], rows: Iterable[list[str]]) -> None:
    """Write ``rows`` to ``path`` and say so; nothing (``rows`` unread) without a path."""
    if not path:
        return
    lines = [",".join(row) for row in rows]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join([",".join(header), *lines]) + "\n")
    print(f"wrote {path} ({len(lines)} rows)")


# ----------------------------------------------------------------- commands


def _cmd_inspect(args) -> int:
    model, relabel = parse_model_file(args.model)
    tree = model.tree
    print(f"nodes:          {model.n}")
    print(f"alphabet size:  {model.alphabet_size}")
    print(f"depth:          {tree.depth}")
    print(f"width:          {tree.width}")
    print(f"table cells:    {model.table_cells()} (cap {enumeration_cap()})")
    print("levels:")
    for d, lev in enumerate(tree.levels):
        print(f"  {d}: {' '.join(str(v) for v in sorted(lev))}")
    if args.verbose:
        nontrivial = {k: v for k, v in relabel.items() if k != v}
        if nontrivial:
            pairs = ", ".join(f"{k}->{v}" for k, v in sorted(nontrivial.items()))
            print(f"relabeled:      {pairs}")
        else:
            print("relabeled:      input labels were already canonical")
        print("root distribution: " + " ".join(_fmt(p) for p in model.root_dist))
        for u, v in tree.edges():
            theta = contraction_coefficient(model, (u, v))
            print(f"edge {u} -> {v}  theta={theta:.6g}")
    return 0


def _cmd_coeffs(args) -> int:
    model, _ = parse_model_file(args.model)
    rows = []
    print("parent  child  theta")
    for u, v in model.tree.edges():
        theta = contraction_coefficient(model, (u, v))
        print(f"{u:6d}  {v:5d}  {theta:.6g}")
        rows.append([str(u), str(v), _fmt(theta)])
    _write_csv(args.csv, ["parent", "child", "theta"], rows)
    return 0


def _cmd_eta(args) -> int:
    model, _ = parse_model_file(args.model)
    if args.pair is not None:
        i, j = args.pair
        report = eta_report(model, i, j)
        print(f"pair ({i}, {j}): j0={report.j0 if report.j0 is not None else '-'}")
        if report.exact is not None:
            print(f"  exact:      {_fmt(report.exact)}")
        else:
            print("  exact:      not computed (enumeration cap)")
        print(f"  level:      {_fmt(report.level_bound)}")
        print(f"  uniform:    {_fmt(report.uniform_bound)}")
        if report.geometric_bound is not None:
            print(f"  geometric:  {_fmt(report.geometric_bound)}")
        return 0
    source = _SOURCE_NAMES[args.source]
    delta, _ = build_mixing_matrices(model, source)
    n = model.n
    entries = delta.entries.tolist()
    print(f"eta_bar matrix, source={source} (unit diagonal)")
    head = "     " + "".join(f"{j:>10d}" for j in range(1, n + 1))
    print(head)
    for i, row in enumerate(entries, start=1):
        cells = "".join(f"{x:>10.4g}" for x in row)
        print(f"{i:4d} {cells}")
    rows = (
        [str(i), str(j), _fmt(x), source]
        for i, row in enumerate(entries, start=1)
        for j, x in enumerate(row[i:], start=i + 1)
    )
    _write_csv(args.csv, ["i", "j", "eta_bar", "provenance"], rows)
    return 0


def _cmd_norms(args) -> int:
    model, _ = parse_model_file(args.model)
    every = args.source == "all"
    rows = []
    print("source         delta_inf      gamma_l2")
    for source in SOURCES if every else [_SOURCE_NAMES[args.source]]:
        try:
            delta, gamma = build_mixing_matrices(model, source)
        except EnumerationLimitError:
            if not every:
                raise
            print(f"{source:<14s} (skipped: table exceeds enumeration cap)")
            continue
        dn = delta_inf_norm(delta)
        gn = gamma_l2_norm(gamma)
        print(f"{source:<14s} {dn:<14.8g} {gn:<14.8g}")
        rows.append([source, _fmt(dn), _fmt(gn)])
    _write_csv(args.csv, ["source", "delta_inf", "gamma_l2"], rows)
    return 0


def _cmd_bound(args) -> int:
    model, _ = parse_model_file(args.model)
    source = _SOURCE_NAMES[args.source]
    delta, gamma = build_mixing_matrices(model, source)
    if args.metric == HAMMING:
        norm = delta_inf_norm(delta)
    else:
        norm = gamma_l2_norm(gamma)
    t_grid = args.t if args.t else list(T_GRID_DEFAULT)
    print(f"metric={args.metric} source={source} norm={_fmt(norm)}")
    reports = [tail_bound(model.n, norm, t, args.metric) for t in t_grid]
    if args.metric == EUCLIDEAN:
        print(
            "note: the Euclidean bound assumes a convex product domain; "
            "for finite alphabets embedded in an interval treat it as a heuristic"
        )
    print("t          bound")
    for rep in reports:
        print(f"{rep.t:<10.6g} {rep.tail_bound:.8g}")
    rows = (
        [
            rep.metric,
            source,
            _fmt(rep.t),
            _fmt(rep.norm_value),
            _fmt(rep.tail_bound),
            str(rep.convexity_required).lower(),
        ]
        for rep in reports
    )
    _write_csv(
        args.csv,
        ["metric", "source", "t", "norm_value", "tail_bound", "convexity_required"],
        rows,
    )
    return 0


def _cmd_sample(args) -> int:
    model, _ = parse_model_file(args.model)
    batch = sample_paths(model, args.seed, args.count)
    header = ["path"] + [f"x{v}" for v in range(1, model.n + 1)]
    label = [str(x) for x in range(model.alphabet_size)]
    rows = [
        [str(p), *map(label.__getitem__, row)]
        for p, row in enumerate(batch.tolist())
    ]
    if args.csv:
        _write_csv(args.csv, header, rows)
    else:
        print(",".join(header))
        for row in rows:
            print(",".join(row))
    return 0


def _cmd_verify(args) -> int:
    model, _ = parse_model_file(args.model)
    results = run_verification(model, trials=args.trials, seed=args.seed)
    width = max(len(r.name) for r in results)
    failed = False
    for r in results:
        mark = {"pass": "PASS", "fail": "FAIL", "skip": "SKIP"}[r.status]
        failed = failed or r.status == "fail"
        viol = "" if r.max_violation is None else f"  max_violation={r.max_violation:.3e}"
        note = f"  ({r.note})" if r.note else ""
        print(f"{mark}  {r.name:<{width}s}  trials={r.trials}{viol}{note}")
    rows = (
        [
            r.name,
            r.status,
            "" if r.max_violation is None else _fmt(r.max_violation),
            str(r.trials),
            r.note,
        ]
        for r in results
    )
    _write_csv(args.csv, ["suite", "status", "max_violation", "trials", "note"], rows)
    if failed:
        print("verification FAILED", file=sys.stderr)
        return 3
    return 0


def _cmd_gen(args) -> int:
    model = random_model(
        seed=args.seed,
        n=args.nodes,
        alphabet_size=args.alphabet_size,
        width=args.width,
        depth=args.depth,
        theta_max=args.theta_max,
    )
    text = json.dumps(serialize_model(model), indent=2) + "\n"
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return 0


# ------------------------------------------------------------------- parser


def _model_command(sub, name: str, func, help: str, csv: bool = True) -> _Parser:
    """Register a command that reads a model file and, if ``csv``, offers ``--csv``."""
    p = sub.add_parser(name, help=help)
    p.add_argument("model", help="model JSON file")
    if csv:
        p.add_argument("--csv", metavar="PATH", help="write CSV output")
    p.set_defaults(func=func)
    return p


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="treemix",
        description=(
            "Mixing coefficients, contraction bounds, and concentration "
            "inequalities for Markov processes indexed by finite trees."
        ),
    )
    parser.add_argument("--version", action="version", version=f"treemix {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = _model_command(sub, "inspect", _cmd_inspect, "print the tree structure", csv=False)
    p.add_argument("-v", "--verbose", action="store_true", help="echo relabeling and kernels")

    _model_command(sub, "coeffs", _cmd_coeffs, "per-edge contraction coefficients")

    p = _model_command(sub, "eta", _cmd_eta, "eta_bar matrix or a single-pair report")
    p.add_argument(
        "--source",
        choices=list(_SOURCE_NAMES),
        default="level",
        help="which eta_bar values fill the matrix (default: level)",
    )
    p.add_argument(
        "--pair",
        nargs=2,
        type=int,
        metavar=("I", "J"),
        help="report every value and bound for one pair instead of the matrix",
    )

    p = _model_command(sub, "norms", _cmd_norms, "mixing-matrix norms per source")
    p.add_argument(
        "--source",
        choices=[*_SOURCE_NAMES, "all"],
        default="all",
        help="eta_bar source (default: all; exact is skipped above the cap)",
    )

    p = _model_command(sub, "bound", _cmd_bound, "tail bounds over a t-grid")
    p.add_argument(
        "--metric", choices=[HAMMING, EUCLIDEAN], default=HAMMING,
        help="deviation metric (default: hamming)",
    )
    p.add_argument("--source", choices=list(_SOURCE_NAMES), default="level")
    p.add_argument(
        "--t", type=float, nargs="+", metavar="T",
        help=f"deviation thresholds (default: {' '.join(str(t) for t in T_GRID_DEFAULT)})",
    )

    p = _model_command(sub, "sample", _cmd_sample, "draw configurations")
    p.add_argument("--count", type=_positive_int, default=10, metavar="N")
    p.add_argument("--seed", type=_seed_int, default=0, metavar="N")

    p = _model_command(sub, "verify", _cmd_verify, "run the self-check suites")
    p.add_argument("--trials", type=_positive_int, default=500, metavar="N")
    p.add_argument("--seed", type=_seed_int, default=42, metavar="N")

    p = sub.add_parser("gen", help="generate a random model file")
    p.add_argument("--nodes", type=_positive_int, required=True, metavar="N")
    p.add_argument("--alphabet-size", type=_positive_int, default=2, metavar="K")
    p.add_argument("--width", type=_positive_int, default=None, metavar="W")
    p.add_argument("--depth", type=_positive_int, default=None, metavar="D")
    p.add_argument("--theta-max", type=float, default=0.9, metavar="X")
    p.add_argument("--seed", type=_seed_int, default=0, metavar="N")
    p.add_argument("-o", "--output", default="-", metavar="PATH", help="output file ('-' for stdout)")
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"treemix: usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (
        ModelFileError,
        TreeStructureError,
        EnumerationLimitError,
        ValueError,
        OSError,
    ) as exc:
        print(f"treemix: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
