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
from pathlib import Path

from . import reference, report, scaling, synthetic
from .errors import (InputOutputError, ParseError, PipelineError,
                     ValidationError, WallscaleError)
from .profiles import atomic_write_text, make_output_dir, save_profile

EXIT_OK = 0
EXIT_ORACLE_FAIL = 1
EXIT_PARSE = 10
EXIT_VALIDATION = 11
EXIT_FIT = 12
EXIT_PARTIAL = 13
EXIT_IO = 14


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
    # A dataclass holds each field's default as a class attribute, so
    # main, which builds a parser on every call, builds no options here.
    defaults = report.AnalyzeOptions
    parser.add_argument("--format", choices=["wall_units", "raw"],
                        default="wall_units", help="input file format")
    parser.add_argument("--lg-eta-min", type=float,
                        default=defaults.lg_eta_min,
                        help="sublayer cutoff in log10(eta) (default "
                             "%(default)s)")
    parser.add_argument("--plateau-tol", type=float,
                        default=defaults.phi_plateau_tol,
                        help="relative tolerance of the free-stream plateau "
                             "heuristic (default %(default)s)")
    parser.add_argument("--min-seg", type=int, default=defaults.min_seg,
                        help="minimum points per fitted segment (default "
                             "%(default)s)")
    parser.add_argument("--consistency-tol", type=float,
                        default=defaults.consistency_tol,
                        help="relative ln Re discrepancy threshold (default "
                             "%(default)s)")
    parser.add_argument("--shift-tol", type=float,
                        default=defaults.shift_tol,
                        help="bisectrix shift classification threshold "
                             "(default %(default)s)")
    parser.add_argument("--alpha-source",
                        choices=[report.ALPHA_SOURCE_MEAN,
                                 report.ALPHA_SOURCE_LNRE1],
                        default=defaults.alpha_source,
                        help="Reynolds estimate used for the universal "
                             "transform (default %(default)s)")
    parser.add_argument("--out-dir", type=Path, default=None,
                        help="directory for plot data and structured reports")


def _options_from_args(args) -> report.AnalyzeOptions:
    return report.AnalyzeOptions(
        lg_eta_min=args.lg_eta_min,
        phi_plateau_tol=args.plateau_tol,
        min_seg=args.min_seg,
        consistency_tol=args.consistency_tol,
        shift_tol=args.shift_tol,
        alpha_source=args.alpha_source,
    )


def _write_envelope(out_dir, table: str) -> None:
    """Write the one envelope table of an output directory."""
    atomic_write_text(make_output_dir(out_dir) / "envelope.dat", table)


def _cmd_analyze(args) -> int:
    bundle = report.analyze(args.file, _options_from_args(args), args.format)
    print(report.format_table([bundle.report]), end="")
    if args.out_dir is not None:
        report.emit_plotdata(bundle, args.out_dir,
                             stem=bundle.source.stem)
        _write_envelope(args.out_dir, report.envelope_table())
    return EXIT_OK


def _cmd_batch(args) -> int:
    bundles, failures = report.batch(args.dir, _options_from_args(args),
                                     args.format)
    print(report.format_table([b.report for b in bundles]), end="")
    for path, exc in failures:
        print(f"error: {path}: {exc}", file=sys.stderr)
    # A batch in which no profile was analyzed creates no directory.
    if args.out_dir is not None and bundles:
        for bundle in bundles:
            report.emit_plotdata(bundle, args.out_dir,
                                 stem=bundle.source.stem)
        _write_envelope(args.out_dir, report.envelope_table())
    return EXIT_PARTIAL if failures else EXIT_OK


def _cmd_synth(args) -> int:
    profile = synthetic.generate(synthetic.load_synth_spec(args.specfile))
    save_profile(profile, args.output)
    print(f"wrote {len(profile)} samples to {args.output}")
    return EXIT_OK


def _cmd_envelope(args) -> int:
    # One solve feeds both the table and the line fit.
    curve = scaling.envelope_curve((args.ln_eta_min, args.ln_eta_max),
                                   args.n_points)
    table = report.format_envelope(curve)
    line = scaling.fit_log_law(curve.ln_eta, curve.phi_env)
    if args.out_dir is not None:
        _write_envelope(args.out_dir, table)
    else:
        print(table, end="")
    print(f"effective log law: kappa={line.kappa:.4f} "
          f"C={line.c_offset:.4f}", file=sys.stderr)
    return EXIT_OK


def _cmd_oracle(args) -> int:
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


VERBS = ("analyze", "batch", "synth", "envelope", "oracle")


def build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The parser for every verb, or, given one of ``VERBS``, for that
    verb alone.  The one-verb parser reads any argv that starts with the
    verb exactly as the full parser does, to the byte of every message,
    and costs about a third as much to build; ``main`` builds a parser on
    every call."""
    parser = argparse.ArgumentParser(
        prog="wallscale",
        description="Scaling-law analysis of turbulent boundary-layer "
                    "velocity profiles.")
    sub = parser.add_subparsers(
        dest="command", required=True,
        # The usage line in an error names every verb, as the full one does.
        metavar=None if verb is None else "{" + ",".join(VERBS) + "}")

    if verb in (None, "analyze"):
        p = sub.add_parser("analyze", help="analyze one profile file")
        p.add_argument("file", type=Path)
        _add_analyze_options(p)
        p.set_defaults(func=_cmd_analyze)

    if verb in (None, "batch"):
        p = sub.add_parser("batch",
                           help="analyze every profile in a directory")
        p.add_argument("dir", type=Path)
        _add_analyze_options(p)
        p.set_defaults(func=_cmd_batch)

    if verb in (None, "synth"):
        p = sub.add_parser("synth", help="generate a synthetic profile")
        p.add_argument("specfile", type=Path)
        p.add_argument("-o", "--output", type=Path, required=True,
                       help="output profile path (wall_units format)")
        p.set_defaults(func=_cmd_synth)

    if verb in (None, "envelope"):
        p = sub.add_parser("envelope",
                           help="tabulate the family envelope vs the log law")
        p.add_argument("--ln-eta-min", type=float, default=5.0)
        p.add_argument("--ln-eta-max", type=float, default=10.0)
        p.add_argument("--n-points", type=int, default=50)
        p.add_argument("--out-dir", type=Path, default=None)
        p.set_defaults(func=_cmd_envelope)

    if verb in (None, "oracle"):
        p = sub.add_parser("oracle",
                           help="recompute the published reference tables")
        p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    verb = argv[0] if argv and argv[0] in VERBS else None
    args = build_parser(verb).parse_args(argv)
    try:
        return args.func(args)
    except WallscaleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code_for(exc)


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
