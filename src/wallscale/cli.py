"""Command-line front end.

Verbs:
    analyze <file>    analyze one profile, print its report row
    batch <dir>       analyze every profile in a directory
    synth <specfile>  generate a synthetic profile from a key=value spec
    envelope          tabulate the envelope against the classical log law
    oracle            run the published-table recomputation suite

Exit codes: 0 success; 10 parse failure; 11 validation failure; 12 fit or
numeric failure; 13 partial batch failure; 14 an input or output file or
directory could not be read or written; 1 oracle-suite failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from . import report, scaling, synthetic
from .errors import (InputOutputError, ParseError, PipelineError,
                     ValidationError, WallscaleError)
from .profiles import check_not_input, save_profile, write_texts

EXIT_OK = 0
EXIT_ORACLE_FAIL = 1
EXIT_PARSE = 10
EXIT_VALIDATION = 11
EXIT_FIT = 12
EXIT_PARTIAL = 13
EXIT_IO = 14


# Each character str.splitlines breaks at, to its repr escape.
_LINE_BREAKS = {ord(c): repr(c)[1:-1]
                for c in "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"}


def _print_error(input, failure) -> None:
    """Print ``error: <input>: <failure>`` (``error: <failure>`` without an
    input) to stderr as one line, each line break escaped as repr does."""
    text = failure if input is None else f"{input}: {failure}"
    print(f"error: {text}".translate(_LINE_BREAKS), file=sys.stderr)


def _exit_code_for(exc: WallscaleError) -> int:
    if isinstance(exc, PipelineError):
        exc = exc.cause
    if isinstance(exc, ParseError):
        return EXIT_PARSE
    if isinstance(exc, ValidationError):
        return EXIT_VALIDATION
    if isinstance(exc, InputOutputError):
        return EXIT_IO
    return EXIT_FIT


def _add_analyze_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=["wall_units", "raw"],
                        default="wall_units", help="input file format")
    parser.add_argument("--lg-eta-min", type=float,
                        help="sublayer cutoff in log10(eta) (default "
                             "%(default)s)")
    parser.add_argument("--plateau-tol", type=float,
                        dest="phi_plateau_tol", metavar="PLATEAU_TOL",
                        help="relative tolerance of the free-stream plateau "
                             "heuristic (default %(default)s)")
    parser.add_argument("--min-seg", type=int,
                        help="minimum points per fitted segment (default "
                             "%(default)s)")
    parser.add_argument("--consistency-tol", type=float,
                        help="relative ln Re discrepancy threshold (default "
                             "%(default)s)")
    parser.add_argument("--shift-tol", type=float,
                        help="bisectrix shift classification threshold "
                             "(default %(default)s)")
    parser.add_argument("--alpha-source",
                        choices=[report.ALPHA_SOURCE_MEAN,
                                 report.ALPHA_SOURCE_LNRE1],
                        help="Reynolds estimate used for the universal "
                             "transform (default %(default)s)")
    parser.add_argument("--out-dir", type=Path, default=None,
                        help="directory for plot data and structured reports")
    # Each analysis flag's dest is an AnalyzeOptions field, whose default
    # it takes; no options are built here.
    parser.set_defaults(**{f.name: f.default
                           for f in fields(report.AnalyzeOptions)})


def _cmd_analyze(args) -> int:
    options = report.AnalyzeOptions(**{
        f.name: getattr(args, f.name) for f in fields(report.AnalyzeOptions)})
    bundle = report.analyze(args.input, options, args.format)
    # The row is printed once the profile's files are written.
    if args.out_dir is not None:
        check_not_input(args.input, *(
            args.out_dir / name for name in
            [*report.plotdata_names(args.input.stem), "envelope.dat"]))
        report.emit_plotdata(bundle, args.out_dir, stem=args.input.stem)
        write_texts(args.out_dir, {"envelope.dat": report.envelope_table()})
    print(report.format_table([bundle.report]), end="")
    return EXIT_OK


def _cmd_batch(args) -> int:
    options = report.AnalyzeOptions(**{
        f.name: getattr(args, f.name) for f in fields(report.AnalyzeOptions)})
    reports, failures = report.batch(args.input, options, args.format,
                                     args.out_dir)
    # Only a batch that wrote a profile writes the envelope.
    if args.out_dir is not None and reports:
        write_texts(args.out_dir, {"envelope.dat": report.envelope_table()})
    print(report.format_table(reports), end="")
    for path, exc in failures:
        _print_error(path, exc)
    return EXIT_PARTIAL if failures else EXIT_OK


def _cmd_synth(args) -> int:
    spec = synthetic.load_synth_spec(args.input)
    check_not_input(args.input, args.output)
    profile = synthetic.generate(spec)
    save_profile(profile, args.output)
    print(f"wrote {len(profile)} samples to {args.output}")
    return EXIT_OK


def _cmd_envelope(args) -> int:
    # One solve feeds both the table and the line fit.
    curve = scaling.envelope_curve((args.ln_eta_min, args.ln_eta_max),
                                   args.n_points)
    # Fit first: a fit that fails leaves no table to render.
    line = scaling.fit_log_law(curve.ln_eta, curve.phi_env)
    table = report.format_envelope(curve)
    if args.out_dir is not None:
        write_texts(args.out_dir, {"envelope.dat": table})
    else:
        print(table, end="")
    print(f"effective log law: kappa={line.kappa:.4f} "
          f"C={line.c_offset:.4f}", file=sys.stderr)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    from . import reference     # imported here: only this verb needs it
    checks = reference.check_all()
    for c in checks:
        status = "ok" if c.strict_ok else ("flagged" if c.flagged else "FAIL")
        print(f"{c.row.label:10s} lnRe1 {c.ln_re1:7.4f} ({c.d_ln_re1:+.4f})  "
              f"lnRe2 {c.ln_re2:7.4f} ({c.d_ln_re2:+.4f})  "
              f"lnRe {c.ln_re_mean:7.4f} ({c.d_ln_re_mean:+.4f})  "
              f"Rth/Re {c.re_theta_over_re:.4f} ({c.d_ratio:+.4f})  "
              f"[{status}]")
    flagged = [c for c in checks if c.flagged]
    print(f"{len(checks)} rows checked, {len(flagged)} flagged print "
          "discrepancies:")
    for c in flagged:
        print(f"  {c.row.label}: "
              f"{reference.KNOWN_PRINT_DISCREPANCIES[c.row.label]}")
    if reference.all_checks_pass(checks):
        print("oracle suite: PASS")
        return EXIT_OK
    print("oracle suite: FAIL")
    return EXIT_ORACLE_FAIL


def build_parser() -> argparse.ArgumentParser:
    """The parser for every verb."""
    parser = argparse.ArgumentParser(
        prog="wallscale",
        description="Scaling-law analysis of turbulent boundary-layer "
                    "velocity profiles.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze one profile file")
    p.add_argument("input", metavar="file", type=Path)
    _add_analyze_options(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("batch", help="analyze every profile in a directory")
    p.add_argument("input", metavar="dir", type=Path)
    _add_analyze_options(p)
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser("synth", help="generate a synthetic profile")
    p.add_argument("input", metavar="specfile", type=Path)
    p.add_argument("-o", "--output", type=Path, required=True,
                   help="output profile path (wall_units format)")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("envelope",
                       help="tabulate the family envelope vs the log law")
    lo, hi = scaling.DEFAULT_ENVELOPE_RANGE
    p.add_argument("--ln-eta-min", type=float, default=lo)
    p.add_argument("--ln-eta-max", type=float, default=hi)
    p.add_argument("--n-points", type=int,
                   default=scaling.DEFAULT_ENVELOPE_POINTS)
    p.add_argument("--out-dir", type=Path, default=None)
    p.set_defaults(func=_cmd_envelope)

    p = sub.add_parser("oracle",
                       help="recompute the published reference tables")
    p.set_defaults(func=_cmd_oracle)

    return parser


# Built once, at import; main reads every argv with it.
PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        return args.func(args)
    except WallscaleError as exc:
        _print_error(getattr(args, "input", None), exc)
        return _exit_code_for(exc)


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
