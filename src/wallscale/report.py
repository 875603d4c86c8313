"""End-to-end profile analysis, batch processing, and plot-data emission.

The pipeline per profile is: load -> sublayer/plateau selection ->
two-segment fit -> region-(I) Reynolds extraction -> consistency verdict
-> universal-coordinate series and shift classification.  The region-(II)
exponent is reported only when the break is statistically significant.

Reports exist in two renderings: a human-readable table (3 decimals for
exponents, 2 for the ln Re columns, 4 significant digits elsewhere,
matching the precision of the published tables) and a machine-readable
key=value text that round-trips exactly.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, replace
from pathlib import Path

from . import diagnostics, fitting, profiles, scaling
from .errors import (InputOutputError, ParseError, PipelineError,
                     ValidationError, WallscaleError)

ALPHA_SOURCE_MEAN = "mean"
ALPHA_SOURCE_LNRE1 = "lnRe1"


@dataclass(frozen=True)
class AnalyzeOptions:
    lg_eta_min: float = profiles.DEFAULT_LG_ETA_MIN
    phi_plateau_tol: float = profiles.DEFAULT_PLATEAU_TOL
    min_seg: int = fitting.DEFAULT_MIN_SEG
    consistency_tol: float = diagnostics.DEFAULT_CONSISTENCY_TOL
    shift_tol: float = diagnostics.DEFAULT_SHIFT_TOL
    alpha_source: str = ALPHA_SOURCE_MEAN

    def __post_init__(self):
        profiles.check_count("min_seg", self.min_seg, 3)
        profiles.check_values(ValidationError, "finite", lg_eta_min=(
            profiles.check_real("lg_eta_min", self.lg_eta_min)))
        profiles.check_values(ValidationError, "finite and >= 0", **{
            name: profiles.check_real(name, getattr(self, name))
            for name in ("phi_plateau_tol", "consistency_tol", "shift_tol")})
        if self.alpha_source not in (ALPHA_SOURCE_MEAN, ALPHA_SOURCE_LNRE1):
            raise ValidationError(
                f"alpha_source must be '{ALPHA_SOURCE_MEAN}' or "
                f"'{ALPHA_SOURCE_LNRE1}', got {self.alpha_source!r}")


@dataclass(frozen=True)
class AnalysisReport:
    """One profile's results; mirrors the column schema of the published
    tables plus the shift diagnostics and the options used."""

    label: str
    re_theta: float | None
    alpha: float
    a: float
    beta: float | None
    b: float | None
    ln_re1: float
    ln_re2: float
    ln_re: float
    rel_discrepancy: float
    consistent: bool
    re_theta_over_re: float | None
    mean_shift: float
    rms_scatter: float
    shift_class: str
    split_index: int
    break_ln_eta: float
    # the options used: AnalyzeOptions' fields, in its order
    lg_eta_min: float
    phi_plateau_tol: float
    min_seg: int
    consistency_tol: float
    shift_tol: float
    alpha_source: str


@dataclass(frozen=True)
class AnalysisBundle:
    """Report plus the intermediate artifacts needed for plot data."""

    report: AnalysisReport
    profile: profiles.VelocityProfile   # after select_intermediate
    fit: fitting.BrokenLineFit
    series: diagnostics.UniversalSeries


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except WallscaleError as exc:
        raise PipelineError(name, exc) from exc


def analyze_profile(profile: profiles.VelocityProfile,
                    options: AnalyzeOptions = AnalyzeOptions()) -> AnalysisBundle:
    """Run the pipeline on an already-loaded profile."""
    inter = _stage("select_intermediate", profiles.select_intermediate,
                   profile, options.lg_eta_min, options.phi_plateau_tol)
    fit = _stage("fit_broken_line", fitting.fit_log_broken_line,
                 inter.ln_eta, inter.ln_phi, options.min_seg)
    a = fit.region1.prefactor
    alpha = fit.region1.exponent
    ln_re1 = _stage("reynolds_extraction",
                    diagnostics.ln_re1_from_prefactor, a)
    ln_re2 = _stage("reynolds_extraction",
                    diagnostics.ln_re2_from_exponent, alpha)
    diag = _stage("reynolds_extraction", diagnostics.combine_reynolds,
                  ln_re1, ln_re2, inter.metadata.re_theta,
                  tol=options.consistency_tol)

    significant = fitting.significant_break(fit)
    beta = fit.region2.exponent if significant else None
    b = fit.region2.prefactor if significant else None

    if options.alpha_source == ALPHA_SOURCE_MEAN:
        alpha_u = scaling.alpha_of_ln_re(diag.ln_re_mean)
    else:
        alpha_u = scaling.alpha_of_ln_re(ln_re1)
    k = fit.split_index
    series = _stage("universal_series", diagnostics.universal_series,
                    inter.ln_eta[:k], inter.phi[:k], alpha_u)
    shift_class = diagnostics.classify_shift(series, options.shift_tol)

    report = AnalysisReport(
        label=inter.metadata.label,
        re_theta=inter.metadata.re_theta,
        alpha=alpha,
        a=a,
        beta=beta,
        b=b,
        ln_re1=ln_re1,
        ln_re2=ln_re2,
        ln_re=diag.ln_re_mean,
        rel_discrepancy=diag.rel_discrepancy,
        consistent=diag.consistent,
        re_theta_over_re=diag.re_theta_over_re,
        mean_shift=series.mean_shift,
        rms_scatter=series.rms_scatter,
        shift_class=shift_class,
        split_index=fit.split_index,
        break_ln_eta=fit.break_ln_eta,
        **vars(options),
    )
    return AnalysisBundle(report=report, profile=inter, fit=fit, series=series)


def analyze(profile_path, options: AnalyzeOptions = AnalyzeOptions(),
            format: str = "wall_units") -> AnalysisBundle:
    """Load a profile file and run the pipeline; pure in (file bytes, options).

    A profile without a label takes the file's stem as its label, and a
    stem that is not one line is a ValidationError."""
    profile_path = Path(profile_path)
    profile = _stage("load_profile", profiles.load_profile,
                     profile_path, format)
    bundle = analyze_profile(profile, options)
    report = bundle.report
    if not report.label:
        # Fall back to the file name so batch summaries stay identifiable;
        # it must be one line, as a label in the file must.
        profiles.ProfileMetadata(label=profile_path.stem)
        report = replace(report, label=profile_path.stem)
    return replace(bundle, report=report)


def batch(dir_path, options: AnalyzeOptions = AnalyzeOptions(),
          format: str = "wall_units", out_dir=None):
    """Analyze every regular file in a directory in name order, writing
    each profile's plot data into ``out_dir`` when it is given.

    Returns (reports sorted by label, failures) where failures is a list
    of (path, exception) in name order; no error names its input.  Only a
    profile's report outlives its turn of the loop: an exception keeps no
    traceback in its chain, whose frames held the profile, fit and series.
    A file that cannot be read (InputOutputError), analyzed or written is
    one failure, and the batch goes on; a profile whose write fails keeps
    the files it already wrote, and its report, written last, is not
    among them.  Output files are named by each input's stem, so a file
    whose stem an earlier file already has is a ValidationError failure
    and is not analyzed.  Raises InputOutputError if the directory cannot
    be listed, and ValidationError if it holds no files at all or if
    ``out_dir`` is the directory itself, whose files the outputs would
    replace.
    """
    dir_path = Path(dir_path)
    try:
        paths = sorted(p for p in dir_path.iterdir()
                       if p.is_file() and not p.name.startswith("."))
    except OSError as exc:
        raise InputOutputError(f"cannot list: {exc.strerror or exc}") from exc
    if not paths:
        raise ValidationError("no profile files found")
    if out_dir is not None:
        profiles.check_not_input(dir_path, out_dir)
    reports = []
    failures = []
    first_with_stem = {}
    for path in paths:
        first = first_with_stem.setdefault(path.stem, path)
        if first is not path:
            failures.append((path, ValidationError(
                f"output stem {path.stem!r} is already used by {first.name}")))
            continue
        try:
            bundle = analyze(path, options, format)
            if out_dir is not None:
                emit_plotdata(bundle, out_dir, stem=path.stem)
        except WallscaleError as exc:
            link = exc
            while link is not None:
                link.__traceback__ = None
                link = link.__cause__ or link.__context__
            failures.append((path, exc))
        else:
            reports.append(bundle.report)
    reports.sort(key=lambda report: report.label)
    return reports, failures


# --- serialization ---------------------------------------------------------

_REPORT_FIELD_TYPES = typing.get_type_hints(AnalysisReport)


def report_to_text(report: AnalysisReport) -> str:
    """Machine-readable key=value rendering; round-trips exactly.  A text
    field holding a line break is a ValidationError."""
    return profiles.format_key_values("# wallscale analysis report",
                                      vars(report).items(), strip=False) + "\n"


def report_from_text(text: str) -> AnalysisReport:
    """Inverse of report_to_text."""
    # A string keeps every character after the "=", so text with outer
    # spaces round-trips.
    values = profiles.read_key_values(text.splitlines(), _REPORT_FIELD_TYPES,
                                      "report field", strip=False)
    missing = [name for name in _REPORT_FIELD_TYPES if name not in values]
    if missing:
        raise ParseError(f"missing report fields {missing}")
    return AnalysisReport(**values)


_TABLE_COLUMNS = (      # field, heading, format spec, width
    ("label", "label", "", 12),
    ("re_theta", "Re_th", ".4g", 8),
    ("alpha", "alpha", ".3f", 7),
    ("a", "A", ".2f", 6),
    ("ln_re1", "lnRe1", ".2f", 6),
    ("ln_re2", "lnRe2", ".2f", 6),
    ("ln_re", "lnRe", ".2f", 6),
    ("rel_discrepancy", "disc", ".4g", 8),
    ("re_theta_over_re", "Rth/Re", ".4g", 8),
    ("beta", "beta", ".3f", 7),
    ("mean_shift", "shift", ".4g", 9),
    ("shift_class", "class", "", 13),
)


def format_table(reports) -> str:
    """Human-readable summary table, one row per report; an absent value
    is ``--``."""
    header = "  ".join(name.ljust(width) for _, name, _, width in _TABLE_COLUMNS)
    lines = [header]
    for report in reports:
        cells = []
        for field, _, spec, width in _TABLE_COLUMNS:
            value = getattr(report, field)
            text = "--" if value is None else format(value, spec)
            cells.append(text.ljust(width))
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines) + "\n"


# --- plot data -------------------------------------------------------------

def emit_plotdata(bundle: AnalysisBundle, out_dir, stem: str) -> list[Path]:
    """Write plain-text, plot-ready data files for one analysis.

    Emits the log-log profile with both fitted lines, the universal series
    with its bisectrix reference, the turbulence-shift series and the
    machine-readable report as ``<stem>_loglog.dat``, ``_universal.dat``,
    ``_shift.dat`` and ``_report.txt``, and returns their four paths; the
    envelope table, the same for every profile, is not one of them.  Every
    text is rendered before ``out_dir`` is created or any file is written,
    so a shift series that cannot be computed (a PipelineError naming the
    ``shift_series`` stage) writes nothing.  Files are written atomically
    and are byte-identical across repeated runs.  A directory or file that
    cannot be written is an InputOutputError.
    """
    profile = bundle.profile

    ln_eta = profile.ln_eta
    # x = ln eta - psi at the report's ln Re, over the whole selected range.
    shift = _stage("shift_series", diagnostics.universal_series,
                   ln_eta, profile.phi,
                   scaling.alpha_of_ln_re(bundle.report.ln_re))
    texts = (
        profiles.format_columns(
            "ln_eta ln_phi fit_region1 fit_region2", ln_eta, profile.ln_phi,
            bundle.fit.region1.ln_phi_at(ln_eta),
            bundle.fit.region2.ln_phi_at(ln_eta)),
        profiles.format_columns(
            "ln_eta psi bisectrix", bundle.series.ln_eta, bundle.series.psi,
            bundle.series.ln_eta),
        profiles.format_columns(
            "x phi", shift.ln_eta - shift.psi, profile.phi),
        report_to_text(bundle.report),
    )
    return profiles.write_texts(out_dir, dict(zip(plotdata_names(stem), texts,
                                                  strict=True)))


# The name of the envelope table in an output directory.
ENVELOPE_FILE = "envelope.dat"


def plotdata_names(stem: str) -> list[str]:
    """The names of the files ``emit_plotdata`` writes for ``stem``, in
    the order it writes them."""
    return [stem + suffix for suffix in
            ("_loglog.dat", "_universal.dat", "_shift.dat", "_report.txt")]


def envelope_table() -> str:
    """The envelope at scaling's default range and points, tabulated
    against ``scaling.CLASSICAL_LOG_LAW``."""
    return format_envelope(scaling.envelope_curve(
        scaling.DEFAULT_ENVELOPE_RANGE, scaling.DEFAULT_ENVELOPE_POINTS))


def format_envelope(curve: scaling.EnvelopeCurve) -> str:
    """The text of ``envelope_table`` for an envelope already computed,
    such as that of ``scaling.envelope_curve``."""
    log_law = scaling.CLASSICAL_LOG_LAW
    return profiles.format_columns(
        "ln_eta phi_env ln_re_touch log_law", curve.ln_eta, curve.phi_env,
        curve.ln_re_touch, curve.ln_eta / log_law.kappa + log_law.c_offset)
