"""Command line front end.

Subcommands: count (congruence-lift counts, formula and/or engine),
classify (full lift classification for one or more levels), witness
(export one noncongruence lift as JSON), presentation (Farey-symbol
generators), verify (the check suite) and verify-witness (re-validate a
witness file).

Exit codes: 0 success, 1 usage or structured domain error (the engine's
scan bound and the index bound among them), 2 verification disagreement,
3 requested object does not exist.  No option sets either bound.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import counting, engine, verify
from .matrices import factorize
from .presentation import (FAMILIES as PRESENTATION_FAMILIES, farey_symbol,
                           generator_set)
from .lifts import classify_all, find_witness

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DISAGREE = 2
EXIT_MISSING = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; keep 2 for disagreements."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def parse_level_range(text: str) -> list[int]:
    if ".." in text:
        lo_text, _, hi_text = text.partition("..")
        lo, hi = int(lo_text), int(hi_text)
    else:
        lo = hi = int(text)
    if lo < 1 or hi < lo:
        raise ValueError(f"bad level range {text!r}")
    return list(range(lo, hi + 1))


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _render_table(header: list[str], rows: list[list]) -> str:
    table = [header] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    lines = []
    for i, row in enumerate(table):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _render_csv(header: list[str], rows: list[list]) -> str:
    import csv
    import io
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def cmd_count(args) -> int:
    levels = parse_level_range(args.n)
    rows = []
    payload = []
    disagreement = False
    for n in levels:
        formula = engine_count = None
        if args.mode in ("formula", "both"):
            formula = counting.count_congruence_lifts_formula(args.group, n)
        if args.mode in ("engine", "both"):
            try:
                engine_count = counting.count_congruence_lifts_engine(
                    args.group, n)
            except engine.ScanBoundExceeded as exc:
                if args.mode == "engine":
                    print(f"error: {exc}; use --mode formula, which "
                          f"needs no engine", file=sys.stderr)
                    return EXIT_USAGE
                print(f"note: no engine count at N = {n}: {exc}",
                      file=sys.stderr)
        base = formula or engine_count
        agree = None
        if formula is not None and engine_count is not None:
            agree = formula.count == engine_count.count
            if not agree:
                disagreement = True
        rows.append([args.group, n, base.branch,
                     "-" if formula is None else formula.count,
                     "-" if engine_count is None else engine_count.count,
                     "-" if agree is None else ("yes" if agree else "NO")])
        if args.mode == "both":
            payload.append({
                "kind": args.group, "N": n, "branch": base.branch,
                "formula": None if formula is None else formula.count,
                "engine": None if engine_count is None else engine_count.count,
                "agree": agree,
            })
        else:
            payload.append(base.to_dict())
    header = ["kind", "N", "branch", "formula", "engine", "agree"]
    if args.format == "json":
        _emit(json.dumps(payload, indent=2), args.out)
    elif args.format == "csv":
        _emit(_render_csv(header, rows), args.out)
    else:
        _emit(_render_table(header, rows), args.out)
    return EXIT_DISAGREE if disagreement else EXIT_OK


CLASSIFY_COLUMNS = ["kind", "N", "s", "t", "index", "e2", "e3", "r",
                    "total_lifts", "congruence", "noncongruence"]


def cmd_classify(args) -> int:
    if args.group not in PRESENTATION_FAMILIES:
        print(f"error: lift construction covers {PRESENTATION_FAMILIES}, "
              f"not {args.group!r}; use `count` for its congruence count",
              file=sys.stderr)
        return EXIT_USAGE
    levels = parse_level_range(args.n)
    rows = []
    payload = []
    for n in levels:
        report = classify_all(args.group, n)
        gens = generator_set(args.group, n)
        profile = factorize(n)
        rows.append([args.group, n, profile.s, profile.t, gens.index,
                     gens.e2, gens.e3, gens.rank, report.total,
                     report.congruence, report.noncongruence])
        record = report.to_dict()
        record.update({"s": profile.s, "t": profile.t, "index": gens.index,
                       "e2": gens.e2, "e3": gens.e3, "r": gens.rank})
        payload.append(record)
    if args.format == "json":
        _emit(json.dumps(payload, indent=2), args.out)
    elif args.format == "csv":
        _emit(_render_csv(CLASSIFY_COLUMNS, rows), args.out)
    else:
        _emit(_render_table(CLASSIFY_COLUMNS, rows), args.out)
    return EXIT_OK


def cmd_witness(args) -> int:
    if args.group not in PRESENTATION_FAMILIES:
        print(f"error: witness construction covers {PRESENTATION_FAMILIES}, "
              f"not {args.group!r}", file=sys.stderr)
        return EXIT_USAGE
    levels = parse_level_range(args.n)
    if len(levels) != 1:
        print("error: witness takes a single level, not a range",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        descriptor = find_witness(args.group, levels[0])
    except LookupError as exc:
        print(f"no witness: {exc}", file=sys.stderr)
        return EXIT_MISSING
    _emit(json.dumps(descriptor.to_dict(), indent=2), args.out)
    return EXIT_OK


def cmd_presentation(args) -> int:
    if args.group not in PRESENTATION_FAMILIES:
        print(f"error: presentations cover {PRESENTATION_FAMILIES}, "
              f"not {args.group!r}", file=sys.stderr)
        return EXIT_USAGE
    levels = parse_level_range(args.n)
    payload = []
    lines = []
    for n in levels:
        symbol = farey_symbol(args.group, n)
        gens = generator_set(args.group, n)
        record = gens.to_dict()
        record["farey"] = {
            "seed_fractions": [[-1, 0], [0, 1], [1, 0]],
            "fractions": [list(f) for f in symbol.fractions],
            "labels": list(symbol.labels),
        }
        payload.append(record)
        lines.append(f"{args.group}({n}): index {gens.index}, "
                     f"e2 {gens.e2}, e3 {gens.e3}, r {gens.rank}")
        for m, kind in gens.entries:
            lines.append(f"  {kind:<5} {m.entries()}")
    if args.format == "json":
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        _emit("\n".join(lines), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.seed_tamper and args.max_n < 5:
        print("error: --seed-tamper needs --max-n 5 or more to reach the "
              "gamma1(5) witness it tampers with", file=sys.stderr)
        return EXIT_USAGE
    results = verify.run_suite(max_n=args.max_n, seed_tamper=args.seed_tamper)
    if args.format == "json":
        _emit(json.dumps([r.to_dict() for r in results], indent=2), args.out)
    else:
        _emit(verify.render_scoreboard(results), args.out)
    return EXIT_OK if all(r.passed for r in results) else EXIT_DISAGREE


def cmd_verify_witness(args) -> int:
    with open(args.infile) as fh:
        data = json.load(fh)
    ok, message = verify.verify_witness_data(data)
    print(message)
    return EXIT_OK if ok else EXIT_DISAGREE


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="liftlab",
                     description="congruence and noncongruence lifts of "
                                 "projective congruence groups")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--group", required=True, choices=counting.FAMILIES)
        p.add_argument("--n", required=True,
                       help="level k or inclusive range a..b")
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("count", help="congruence lift counts")
    add_common(p)
    p.add_argument("--mode", choices=("formula", "engine", "both"),
                   default="both")
    p.add_argument("--format", choices=("table", "json", "csv"),
                   default="table")
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("classify", help="classify every lift of a level")
    add_common(p)
    p.add_argument("--format", choices=("table", "json", "csv"),
                   default="table")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("witness", help="export one noncongruence lift")
    add_common(p)
    p.set_defaults(fn=cmd_witness)

    p = sub.add_parser("presentation", help="Farey-symbol generators")
    add_common(p)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(fn=cmd_presentation)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--max-n", type=positive_int, default=24)
    p.add_argument("--seed-tamper", action="store_true",
                   help="negative control: corrupt one witness sign and "
                        "demand the suite notices")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("verify-witness", help="re-validate a witness file")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(fn=cmd_verify_witness)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
