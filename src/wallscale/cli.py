"""Command-line front end.

Verbs:
    analyze <file>    analyze one profile, print its report row
    batch <dir>       analyze every profile in a directory
    synth <specfile>  generate a synthetic profile from a key=value spec
    envelope          tabulate the envelope against the classical log law
    oracle            run the published-table recomputation suite

Exit codes: 0 success; 10 parse failure; 11 validation failure; 12 fit or
numeric failure; 13 partial batch failure; 1 oracle-suite failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import reference, report, scaling, synthetic
from .errors import (ParseError, PipelineError, ValidationError,
                     WallscaleError)
from .profiles import atomic_write_text, save_profile

EXIT_OK = 0
EXIT_ORACLE_FAIL = 1
EXIT_PARSE = 10
EXIT_VALIDATION = 11
EXIT_FIT = 12
EXIT_PARTIAL = 13


def _exit_code_for(exc: WallscaleError) -> int:
    if isinstance(exc, PipelineError):
        exc = exc.cause
    if isinstance(exc, ParseError):
        return EXIT_PARSE
    if isinstance(exc, ValidationError):
        return EXIT_VALIDATION
    return EXIT_FIT


def _add_analyze_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=["wall_units", "raw"],
                        default="wall_units", help="input file format")
    parser.add_argument("--lg-eta-min", type=float, default=1.5,
                        help="sublayer cutoff in log10(eta) (default 1.5)")
    parser.add_argument("--plateau-tol", type=float, default=0.002,
                        help="relative tolerance of the free-stream plateau "
                             "heuristic (default 0.002)")
    parser.add_argument("--min-seg", type=int, default=3,
                        help="minimum points per fitted segment (default 3)")
    parser.add_argument("--consistency-tol", type=float, default=0.03,
                        help="relative ln Re discrepancy threshold (default 0.03)")
    parser.add_argument("--shift-tol", type=float, default=0.1,
                        help="bisectrix shift classification threshold "
                             "(default 0.1)")
    parser.add_argument("--alpha-source", choices=["mean", "lnRe1"],
                        default="mean",
                        help="Reynolds estimate used for the universal "
                             "transform (default mean)")
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


def _cmd_analyze(args) -> int:
    try:
        bundle = report.analyze(args.file, _options_from_args(args),
                                args.format)
    except WallscaleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code_for(exc)
    print(report.format_table([bundle.report]), end="")
    if args.out_dir is not None:
        report.emit_plotdata(bundle, args.out_dir,
                             stem=bundle.source.stem)
    return EXIT_OK


def _cmd_batch(args) -> int:
    try:
        bundles, failures = report.batch(args.dir, _options_from_args(args),
                                         args.format)
    except WallscaleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code_for(exc)
    print(report.format_table([b.report for b in bundles]), end="")
    for path, exc in failures:
        print(f"error: {path}: {exc}", file=sys.stderr)
    if args.out_dir is not None:
        for bundle in bundles:
            report.emit_plotdata(bundle, args.out_dir,
                                 stem=bundle.source.stem)
    return EXIT_PARTIAL if failures else EXIT_OK


def _cmd_synth(args) -> int:
    try:
        spec = synthetic.load_synth_spec(args.specfile)
        profile = synthetic.generate(spec)
        save_profile(profile, args.output)
    except WallscaleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code_for(exc)
    print(f"wrote {len(profile)} samples to {args.output}")
    return EXIT_OK


def _cmd_envelope(args) -> int:
    try:
        table = report.envelope_table((args.ln_eta_min, args.ln_eta_max),
                                      args.n_points)
        line = scaling.envelope_line_fit((args.ln_eta_min, args.ln_eta_max),
                                         args.n_points)
    except WallscaleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code_for(exc)
    if args.out_dir is not None:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        atomic_write_text(out_dir / "envelope.dat", table)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wallscale",
        description="Scaling-law analysis of turbulent boundary-layer "
                    "velocity profiles.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze one profile file")
    p.add_argument("file", type=Path)
    _add_analyze_options(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("batch", help="analyze every profile in a directory")
    p.add_argument("dir", type=Path)
    _add_analyze_options(p)
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser("synth", help="generate a synthetic profile")
    p.add_argument("specfile", type=Path)
    p.add_argument("-o", "--output", type=Path, required=True,
                   help="output profile path (wall_units format)")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("envelope",
                       help="tabulate the family envelope vs the log law")
    p.add_argument("--ln-eta-min", type=float, default=5.0)
    p.add_argument("--ln-eta-max", type=float, default=10.0)
    p.add_argument("--n-points", type=int, default=50)
    p.add_argument("--out-dir", type=Path, default=None)
    p.set_defaults(func=_cmd_envelope)

    p = sub.add_parser("oracle",
                       help="recompute the published reference tables")
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
