"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data or validation error,
3 verification failure.  ``--csv PATH`` writes machine-readable output
with '.' as the decimal separator and 17 significant digits; given the
same inputs and seed the bytes are identical across runs.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

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
    _cells_text,
    contraction_coefficient,
    enumeration_cap,
    sample_blocks,
)
from .modelfile import model_text, parse_model_file, random_model, save_model
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


def _table_text(header: str, lines: list[str]) -> str:
    return "\n".join([header, *lines]) + "\n"


def _write_csv(path: str | None, header: str, lines: list[str]) -> None:
    """Write ``header`` and the row ``lines`` to ``path`` and say so;
    nothing without a path."""
    if not path:
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_table_text(header, lines))
    print(f"wrote {path} ({len(lines)} rows)")


def _joined_rows(tokens: list[str], index: np.ndarray) -> list[str]:
    """``"".join(tokens[k] for k in row)`` for every row of the 2-D ``index``.

    The tokens are gathered as one fixed-width bytes array and each row is
    read as one record; tokens narrower than the widest are NUL-padded,
    and the padding is dropped.
    """
    encoded = [token.encode() for token in tokens]
    table = np.array(encoded)
    rows = table[index].view(f"S{table.itemsize * index.shape[1]}").ravel().tolist()
    if min(map(len, encoded)) < table.itemsize:
        return [row.replace(b"\0", b"").decode() for row in rows]
    return [row.decode() for row in rows]


def _distinct_entries(entries: np.ndarray) -> tuple[list[float], np.ndarray]:
    """The distinct entries of a float matrix, by bit pattern (so 0.0 and
    -0.0 stay apart), and the index of each entry among them."""
    flat = np.ascontiguousarray(entries, dtype=np.float64).reshape(-1)
    bits, inverse = np.unique(flat.view(np.int64), return_inverse=True)
    return bits.view(np.float64).tolist(), inverse.reshape(entries.shape)


# ----------------------------------------------------------------- commands


def _cmd_inspect(args, model, relabel) -> int:
    tree = model.tree
    print(f"nodes:          {model.n}")
    print(f"alphabet size:  {model.alphabet_size}")
    print(f"depth:          {tree.depth}")
    print(f"width:          {tree.width}")
    print(f"table cells:    {_cells_text(model)} (cap {enumeration_cap()})")
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


def _cmd_coeffs(args, model, _relabel) -> int:
    lines = []
    print("parent  child  theta")
    for u, v in model.tree.edges():
        theta = contraction_coefficient(model, (u, v))
        print(f"{u:6d}  {v:5d}  {theta:.6g}")
        lines.append(f"{u},{v},{_fmt(theta)}")
    _write_csv(args.csv, "parent,child,theta", lines)
    return 0


def _cmd_eta(args, model, _relabel) -> int:
    if args.pair is not None:
        i, j = args.pair
        report = eta_report(model, i, j)
        print(f"pair ({i}, {j}): j0={report.j0 if report.j0 is not None else '-'}")
        entries = [(source.removesuffix("-bound"), v) for source, v in report.values]
        if report.geometric_bound is not None:
            entries.append(("geometric", report.geometric_bound))
        for short, value in entries:
            text = "not computed (enumeration cap)" if value is None else _fmt(value)
            print(f"  {short + ':':<12s}{text}")
        return 0
    source = _SOURCE_NAMES[args.source]
    delta, _ = build_mixing_matrices(model, source)
    n = model.n
    # Each distinct value is formatted once; rows are assembled by index.
    values, index = _distinct_entries(delta.entries)
    cells = _joined_rows([f"{x:>10.4g}" for x in values], index)
    head = "     " + "".join(f"{j:>10d}" for j in range(1, n + 1))
    sys.stdout.write(
        _table_text(
            f"eta_bar matrix, source={source} (unit diagonal)\n{head}",
            [f"{i:4d} {row}" for i, row in enumerate(cells, start=1)],
        )
    )
    if args.csv:
        tails = [f",{_fmt(x)},{source}" for x in values]
        iu, ju = np.triu_indices(n, 1)
        lines = [
            f"{i},{j}{tails[k]}"
            for i, j, k in zip((iu + 1).tolist(), (ju + 1).tolist(), index[iu, ju].tolist())
        ]
        _write_csv(args.csv, "i,j,eta_bar,provenance", lines)
    return 0


def _cmd_norms(args, model, _relabel) -> int:
    every = args.source == "all"
    lines = []
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
        lines.append(f"{source},{_fmt(dn)},{_fmt(gn)}")
    _write_csv(args.csv, "source,delta_inf,gamma_l2", lines)
    return 0


def _cmd_bound(args, model, _relabel) -> int:
    source = _SOURCE_NAMES[args.source]
    delta, gamma = build_mixing_matrices(model, source)
    if args.metric == HAMMING:
        norm = delta_inf_norm(delta)
    else:
        norm = gamma_l2_norm(gamma)
    t_grid = args.t if args.t else list(T_GRID_DEFAULT)
    # Every threshold is checked before the first line is printed.
    reports = [tail_bound(model.n, norm, t, args.metric) for t in t_grid]
    print(f"metric={args.metric} source={source} norm={_fmt(norm)}")
    if args.metric == EUCLIDEAN:
        print(
            "note: the Euclidean bound assumes a convex product domain; "
            "for finite alphabets embedded in an interval treat it as a heuristic"
        )
    print("t          bound")
    for rep in reports:
        print(f"{rep.t:<10.6g} {rep.tail_bound:.8g}")
    lines = [
        f"{rep.metric},{source},{_fmt(rep.t)},{_fmt(rep.norm_value)},"
        f"{_fmt(rep.tail_bound)},{str(rep.convexity_required).lower()}"
        for rep in reports
    ]
    _write_csv(
        args.csv, "metric,source,t,norm_value,tail_bound,convexity_required", lines
    )
    return 0


def _cmd_sample(args, model, _relabel) -> int:
    # Drawn and written a block at a time; the blocks equal one call.
    tokens = [f",{x}" for x in range(model.alphabet_size)]
    header = ",".join(["path"] + [f"x{v}" for v in range(1, model.n + 1)])

    def write(fh) -> None:
        fh.write(header + "\n")
        for start, batch in sample_blocks(model, args.seed, args.count):
            rows = _joined_rows(tokens, batch)
            fh.write("".join([f"{p}{row}\n" for p, row in enumerate(rows, start)]))

    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            write(fh)
        print(f"wrote {args.csv} ({args.count} rows)")
    else:
        write(sys.stdout)
    return 0


def _cmd_verify(args, model, _relabel) -> int:
    results = run_verification(model, trials=args.trials, seed=args.seed)
    width = max(len(r.name) for r in results)
    failed = False
    for r in results:
        mark = {"pass": "PASS", "fail": "FAIL", "skip": "SKIP"}[r.status]
        failed = failed or r.status == "fail"
        viol = "" if r.max_violation is None else f"  max_violation={r.max_violation:.3e}"
        note = f"  ({r.note})" if r.note else ""
        print(f"{mark}  {r.name:<{width}s}  trials={r.trials}{viol}{note}")
    lines = [
        ",".join(
            [
                r.name,
                r.status,
                "" if r.max_violation is None else _fmt(r.max_violation),
                str(r.trials),
                r.note,
            ]
        )
        for r in results
    ]
    _write_csv(args.csv, "suite,status,max_violation,trials,note", lines)
    if failed:
        print("verification FAILED", file=sys.stderr)
        return 3
    return 0


def _cmd_gen(args) -> int:
    model = random_model(
        args.seed, args.nodes, args.alphabet_size, args.width, args.depth, args.theta_max
    )
    if args.output and args.output != "-":
        save_model(model, args.output)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(model_text(model))
    return 0


# ------------------------------------------------------------------- parser


def _model_command(sub, name: str, func, help: str, csv: bool = True) -> _Parser:
    """Register a command that reads a model file and, if ``csv``, offers ``--csv``.

    The command runs as ``func(args, model, relabel)`` on the parsed file.
    """
    p = sub.add_parser(name, help=help)
    p.add_argument("model", help="model JSON file")
    if csv:
        p.add_argument("--csv", metavar="PATH", help="write CSV output")
    p.set_defaults(func=lambda args: func(args, *parse_model_file(args.model)))
    return p


@functools.cache  # one parser per process; parse_args keeps no state in it
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
    except (EnumerationLimitError, ValueError, OSError) as exc:  # with file and tree errors
        print(f"treemix: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
