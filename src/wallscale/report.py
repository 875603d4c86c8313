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
from dataclasses import dataclass, fields, replace
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
    source: Path | None = None          # input file, when loaded by analyze


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
        lg_eta_min=options.lg_eta_min,
        phi_plateau_tol=options.phi_plateau_tol,
        min_seg=options.min_seg,
        consistency_tol=options.consistency_tol,
        shift_tol=options.shift_tol,
        alpha_source=options.alpha_source,
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
        try:
            profiles.ProfileMetadata(label=profile_path.stem)
        except ValidationError as exc:
            raise ValidationError(f"{profile_path}: {exc}") from exc
        report = replace(report, label=profile_path.stem)
    return replace(bundle, report=report, source=profile_path)


def batch(dir_path, options: AnalyzeOptions = AnalyzeOptions(),
          format: str = "wall_units"):
    """Analyze every regular file in a directory.

    Returns (bundles sorted by label, failures) where failures is a list
    of (path, exception).  Individual failures do not abort the batch.
    Output files are named by each input's stem, so a file whose stem an
    earlier file (in name order) already has is a ValidationError failure
    and is not analyzed.  A file that cannot be read is an InputOutputError
    failure.  Raises InputOutputError if the directory cannot be listed and
    ValidationError if it holds no files at all.
    """
    dir_path = Path(dir_path)
    try:
        paths = sorted(p for p in dir_path.iterdir()
                       if p.is_file() and not p.name.startswith("."))
    except OSError as exc:
        raise InputOutputError(f"cannot list {dir_path}: "
                               f"{exc.strerror or exc}") from exc
    if not paths:
        raise ValidationError(f"{dir_path}: no profile files found")
    bundles = []
    failures = []
    first_with_stem = {}
    for path in paths:
        first = first_with_stem.setdefault(path.stem, path)
        if first is not path:
            failures.append((path, ValidationError(
                f"output stem {path.stem!r} is already used by {first.name}")))
            continue
        try:
            bundles.append(analyze(path, options, format))
        except WallscaleError as exc:
            failures.append((path, exc))
    bundles.sort(key=lambda bundle: bundle.report.label)
    return bundles, failures


# --- serialization ---------------------------------------------------------

_REPORT_FIELD_TYPES = typing.get_type_hints(AnalysisReport)


def report_to_text(report: AnalysisReport) -> str:
    """Machine-readable key=value rendering; round-trips exactly."""
    lines = ["# wallscale analysis report"]
    for f in fields(AnalysisReport):
        value = getattr(report, f.name)
        if value is None:
            rendered = "none"
        elif isinstance(value, bool):
            rendered = "true" if value else "false"
        elif isinstance(value, float):
            rendered = repr(value)
        else:
            rendered = str(value)
        lines.append(f"{f.name}={rendered}")
    return "\n".join(lines) + "\n"


def report_from_text(text: str) -> AnalysisReport:
    """Inverse of report_to_text."""
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        # A string keeps every character after the "=", so text with outer
        # spaces round-trips.
        key, raw = profiles.split_key_value(line, _REPORT_FIELD_TYPES,
                                            "report field", lineno=lineno)
        values[key] = profiles.parse_value(_REPORT_FIELD_TYPES[key], key, raw,
                                           lineno=lineno)
    missing = [name for name in _REPORT_FIELD_TYPES if name not in values]
    if missing:
        raise ParseError(f"missing report fields {missing}")
    return AnalysisReport(**values)


def _fmt(value, kind: str) -> str:
    if value is None:
        return "--"
    if kind == "exp":
        return f"{value:.3f}"
    if kind == "lnre":
        return f"{value:.2f}"
    if kind == "sig4":
        return f"{value:.4g}"
    return str(value)


_TABLE_COLUMNS = (
    ("label", "label", "str", 12),
    ("re_theta", "Re_th", "sig4", 8),
    ("alpha", "alpha", "exp", 7),
    ("a", "A", "lnre", 6),
    ("ln_re1", "lnRe1", "lnre", 6),
    ("ln_re2", "lnRe2", "lnre", 6),
    ("ln_re", "lnRe", "lnre", 6),
    ("rel_discrepancy", "disc", "sig4", 8),
    ("re_theta_over_re", "Rth/Re", "sig4", 8),
    ("beta", "beta", "exp", 7),
    ("mean_shift", "shift", "sig4", 9),
    ("shift_class", "class", "str", 13),
)


def format_table(reports) -> str:
    """Human-readable summary table, one row per report."""
    header = "  ".join(name.ljust(width) for _, name, _, width in _TABLE_COLUMNS)
    lines = [header]
    for report in reports:
        cells = []
        for field, _, kind, width in _TABLE_COLUMNS:
            cells.append(_fmt(getattr(report, field), kind).ljust(width))
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
    texts = {
        f"{stem}_loglog.dat": profiles.format_columns(
            "ln_eta ln_phi fit_region1 fit_region2", ln_eta, profile.ln_phi,
            bundle.fit.region1.ln_phi_at(ln_eta),
            bundle.fit.region2.ln_phi_at(ln_eta)),
        f"{stem}_universal.dat": profiles.format_columns(
            "ln_eta psi bisectrix", bundle.series.ln_eta, bundle.series.psi,
            bundle.series.ln_eta),
        f"{stem}_shift.dat": profiles.format_columns(
            "x phi", shift.ln_eta - shift.psi, profile.phi),
        f"{stem}_report.txt": report_to_text(bundle.report),
    }
    out_dir = profiles.make_output_dir(out_dir)
    for name, text in texts.items():
        profiles.atomic_write_text(out_dir / name, text)
    return [out_dir / name for name in texts]


def envelope_table(ln_eta_range=scaling.DEFAULT_ENVELOPE_RANGE,
                   n_points: int = scaling.DEFAULT_ENVELOPE_POINTS) -> str:
    """The envelope tabulated against ``scaling.CLASSICAL_LOG_LAW``."""
    return format_envelope(scaling.envelope_curve(ln_eta_range, n_points))


def format_envelope(curve: scaling.EnvelopeCurve) -> str:
    """The text of ``envelope_table`` for an envelope already computed,
    such as that of ``scaling.envelope_curve``."""
    log_law = scaling.CLASSICAL_LOG_LAW
    return profiles.format_columns(
        "ln_eta phi_env ln_re_touch log_law", curve.ln_eta, curve.phi_env,
        curve.ln_re_touch, curve.ln_eta / log_law.kappa + log_law.c_offset)
