"""Slow reference implementations that wallscale is checked against.

Each function redoes one stage of the pipeline, or all of it
(``analyze``), the slow way: value by value, with per-value ``math``
calls, the package's scalar formulas and Python loops, or by brute force
(``exhaustive_broken_line``, ``grid_envelope``), never with the columnar
code it checks.  The tests compare the package with them, bit for bit
where the arithmetic is the same, and ``benchmarks/run.py`` checks every
measured tree's fit against the ``exhaustive_broken_line`` of its own
checkout.

This module imports only the standard library, ``numpy`` and
``wallscale``, never ``pytest`` or ``hypothesis``, so that a bare
interpreter can import it; ``exhaustive_broken_line`` uses only the public
``fit_power_law`` and ``BrokenLineFit``.  Not to be confused with the
``wallscale oracle`` command, which recomputes the published tables.
"""

import itertools
import math
import sys

import numpy as np

from wallscale import (BrokenLineFit, DomainError, FitError, ParseError,
                       PipelineError, ProfileMetadata, UniversalSeries,
                       ValidationError, VelocityProfile, WallscaleError,
                       alpha_of_ln_re, classify_shift, combine_reynolds,
                       fit_power_law, ln_re1_from_prefactor,
                       ln_re2_from_exponent, psi_transform,
                       significant_break)
from wallscale.profiles import _METADATA_KEYS, read_lines
from wallscale.report import ALPHA_SOURCE_MEAN

SQRT3 = math.sqrt(3.0)


def log_columns(*columns):
    """Each column's libm ``math.log``, taken value by value, as a float64
    array: the logarithms the package takes."""
    return tuple(np.array([math.log(v) for v in column], dtype=float)
                 for column in columns)


# --- fitting ---------------------------------------------------------------

def tie_band(ln_eta, ln_phi, fits):
    """``fit_log_broken_line``'s tie band delta, from Python sums over the
    log columns and the exact segment pair ``fits[k]`` of every split k
    in place of the fit's running sums."""
    n = len(ln_eta)
    eta_mean, phi_mean = sum(ln_eta) / n, sum(ln_phi) / n
    xx = [0.0, *itertools.accumulate((v - eta_mean) ** 2 for v in ln_eta)]
    yy = [0.0, *itertools.accumulate((v - phi_mean) ** 2 for v in ln_phi)]

    def size(seg, lo, hi):
        """sum(y**2) + m a**2 + b**2 sum(x**2) over samples lo..hi-1."""
        at = math.log(seg.prefactor) + seg.exponent * eta_mean - phi_mean
        return (yy[hi] - yy[lo] + (hi - lo) * at ** 2
                + seg.exponent ** 2 * (xx[hi] - xx[lo]))

    largest = max(size(seg1, 0, k) + size(seg2, k, n)
                  for k, (seg1, seg2) in fits.items())
    steepest = max(abs(seg.exponent) for pair in fits.values() for seg in pair)
    scale = max(map(abs, ln_phi)) + steepest * max(map(abs, ln_eta))
    eps = sys.float_info.epsilon
    return 2.0 * (2 * (n + 4) * eps * largest
                  + eps * scale * math.sqrt(n * yy[n])
                  + n * (n * eps * scale) ** 2)


def exhaustive_broken_line(eta, phi, min_seg=3):
    """Reference fit: both segments refitted at every admissible split,
    and the fit's rule applied to the exact totals.  Every split within
    ``tie_band`` of the least total ties; the tie whose boundary is
    nearest the middle of the ln eta span wins, then the smaller k."""
    if len(eta) < 2 * min_seg:
        raise FitError(f"broken-line fit needs at least {2 * min_seg} "
                       f"points, got {len(eta)}")
    ln_eta, ln_phi = log_columns(eta, phi)
    n = len(ln_eta)
    fits = {k: (fit_power_law(ln_eta[:k], ln_phi[:k]),
                fit_power_law(ln_eta[k:], ln_phi[k:]))
            for k in range(min_seg, n - min_seg + 1)}
    totals = {k: seg1.rss + seg2.rss for k, (seg1, seg2) in fits.items()}
    edge = min(totals.values()) + tie_band(ln_eta.tolist(), ln_phi.tolist(),
                                           fits)
    mid = 0.5 * (ln_eta[0] + ln_eta[-1])
    _, k = min((abs(0.5 * (ln_eta[k - 1] + ln_eta[k]) - mid), k)
               for k, total in totals.items() if total <= edge)
    seg1, seg2 = fits[k]
    break_ln_eta = 0.5 * (ln_eta[k - 1] + ln_eta[k])
    if seg1.exponent != seg2.exponent:
        xi = ((math.log(seg1.prefactor) - math.log(seg2.prefactor))
              / (seg2.exponent - seg1.exponent))
        if ln_eta[0] <= xi <= ln_eta[-1]:
            break_ln_eta = xi
    return BrokenLineFit(region1=seg1, region2=seg2,
                         break_ln_eta=float(break_ln_eta),
                         total_rss=seg1.rss + seg2.rss, split_index=k)


# --- profiles --------------------------------------------------------------

def select_reference(eta, phi, lg_eta_min, tol):
    """select_intermediate written sample by sample: the kept (eta, phi)
    pairs."""
    kept = [(e, p) for e, p in zip(eta, phi) if math.log10(e) > lg_eta_min]
    n = len(kept)
    if n >= 2:
        kp = np.array([p for _, p in kept])
        ln_eta, ln_phi = log_columns(*zip(*kept))
        running_max = np.maximum.accumulate(kp)
        band = tol * kp.max()
        drop = 0
        for i in range(n - 1, 0, -1):
            slope = (ln_phi[i] - ln_phi[i - 1]) / (ln_eta[i] - ln_eta[i - 1])
            if slope <= 0 and kp[i] >= running_max[i] - band:
                drop += 1
            else:
                break
        kept = kept[:n - drop]
    return kept


def _parse_number(text, key, path, lineno):
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"cannot parse {key} value {text!r}",
                         path=path, line=lineno) from None


def reference_load(path, format):
    """The per-line loader ``load_profile`` must match: one line at a
    time, every check spelled out in order."""
    meta_kwargs: dict = {}
    rows: list[tuple[float, float]] = []
    for lineno, line in enumerate(read_lines(path), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" in text:
            key, _, value = text.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _METADATA_KEYS:
                raise ParseError(f"unknown metadata key {key!r}",
                                 path=path, line=lineno)
            field = _METADATA_KEYS[key]
            if field == "label":
                meta_kwargs[field] = value
            else:
                meta_kwargs[field] = _parse_number(value, key, path, lineno)
            continue
        parts = text.split(",") if "," in text else text.split()
        if len(parts) != 2:
            raise ParseError(f"expected 2 columns, got {len(parts)}",
                             path=path, line=lineno)
        a = _parse_number(parts[0].strip(), "column 1", path, lineno)
        b = _parse_number(parts[1].strip(), "column 2", path, lineno)
        rows.append((a, b))

    try:
        metadata = ProfileMetadata(**meta_kwargs)
        first, second = np.array(rows, dtype=np.float64).reshape(-1, 2).T
        if format == "raw":
            if metadata.u_star is None or metadata.nu is None:
                raise ValidationError(
                    "raw format requires u_star and nu metadata")
            for row in rows:
                for name, value in zip(("y", "u"), row):
                    if not 0 < value < math.inf:
                        raise ValidationError(f"{name} must be positive and "
                                              f"finite, got {value!r}")
            first = metadata.u_star * first / metadata.nu
            second = second / metadata.u_star
        return VelocityProfile(first, second, metadata)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


# --- diagnostics -----------------------------------------------------------

def per_point_series(eta, phi, alpha):
    """The reference for the columnar build: the same checks (every eta
    positive, then every eta finite), then ``math.log`` and
    ``psi_transform`` sample by sample, and Python sums in row order, of
    squares taken as products.  Returns (ln_eta, psi, mean_shift,
    rms_scatter)."""
    if not eta:
        raise DomainError("cannot build a universal series from no samples")
    for e in eta:
        if not e > 0:
            raise DomainError(f"eta must be positive, got {e!r}")
    for e in eta:
        if not e < math.inf:
            raise DomainError(f"eta must be finite, got {e!r}")
    ln_eta = log_columns(eta)[0].tolist()
    psi = [psi_transform(p, alpha) for p in phi]
    deviations = [x - y for x, y in zip(ln_eta, psi)]
    mean = sum(deviations) / len(deviations)
    rms = math.sqrt(sum((d - mean) * (d - mean) for d in deviations)
                    / len(deviations))
    if rms == math.inf:
        raise DomainError(f"alpha={alpha!r} is too small: psi or the rms of "
                          "ln eta - psi overflows")
    return ln_eta, psi, mean, rms


# --- scaling ---------------------------------------------------------------

def grid_envelope(ln_eta, lo=4.0, hi=60.0, n=100_000):
    """Independent envelope oracle: dense grid over ln Re, take the minimum."""
    grid = np.linspace(lo, hi, n)
    values = (grid / SQRT3 + 2.5) * np.exp(1.5 * ln_eta / grid)
    i = int(np.argmin(values))
    return float(values[i]), float(grid[i])


def scalar_envelope(x):
    """The closed form at one float, with Python's arithmetic and libm's
    exp: the per-point reference for the columnar solve."""
    touch = (1.5 * x + math.sqrt(2.25 * x * x + 15.0 * SQRT3 * x)) / 2.0
    return (touch / SQRT3 + 2.5) * math.exp(1.5 * x / touch), touch


# --- the whole pipeline ----------------------------------------------------

def _rows(header, *columns):
    """A float-column file's text, one row at a time."""
    text = header + "\n"
    for row in zip(*columns):
        text += " ".join(repr(float(v)) for v in row) + "\n"
    return text


def _stage(name, fn, *args):
    try:
        return fn(*args)
    except WallscaleError as exc:
        raise PipelineError(name, exc) from exc


def _select(profile, options):
    kept = select_reference(profile.eta.tolist(), profile.phi.tolist(),
                            options.lg_eta_min, options.phi_plateau_tol)
    if len(kept) < 4:
        raise ValidationError(f"{len(kept)} samples survive the cuts")
    return [e for e, _ in kept], [p for _, p in kept]


def _reynolds(fit, re_theta, tol):
    ln_re1 = ln_re1_from_prefactor(fit.region1.prefactor)
    ln_re2 = ln_re2_from_exponent(fit.region1.exponent)
    return combine_reynolds(ln_re1, ln_re2, re_theta, tol=tol)


def analyze(profile, options):
    """``analyze_profile`` and ``emit_plotdata`` rebuilt from the
    references above: (report fields, {file suffix: text}) for the
    ``_loglog.dat``, ``_universal.dat`` and ``_shift.dat`` files.  A stage
    that fails raises a PipelineError naming the pipeline's stage."""
    eta, phi = _stage("select_intermediate", _select, profile, options)
    fit = _stage("fit_broken_line", exhaustive_broken_line, eta, phi,
                 options.min_seg)
    meta = profile.metadata
    diag = _stage("reynolds_extraction", _reynolds, fit, meta.re_theta,
                  options.consistency_tol)
    significant = significant_break(fit)
    source = (diag.ln_re_mean if options.alpha_source == ALPHA_SOURCE_MEAN
              else diag.ln_re1)
    k = fit.split_index
    series = UniversalSeries(*_stage(
        "universal_series", per_point_series, eta[:k], phi[:k],
        alpha_of_ln_re(source)))
    fields = dict(
        label=meta.label, re_theta=meta.re_theta,
        alpha=fit.region1.exponent, a=fit.region1.prefactor,
        beta=fit.region2.exponent if significant else None,
        b=fit.region2.prefactor if significant else None,
        ln_re1=diag.ln_re1, ln_re2=diag.ln_re2, ln_re=diag.ln_re_mean,
        rel_discrepancy=diag.rel_discrepancy, consistent=diag.consistent,
        re_theta_over_re=diag.re_theta_over_re,
        mean_shift=series.mean_shift, rms_scatter=series.rms_scatter,
        shift_class=classify_shift(series, options.shift_tol),
        split_index=k, break_ln_eta=fit.break_ln_eta,
        lg_eta_min=options.lg_eta_min,
        phi_plateau_tol=options.phi_plateau_tol, min_seg=options.min_seg,
        consistency_tol=options.consistency_tol,
        shift_tol=options.shift_tol, alpha_source=options.alpha_source)

    ln_eta, psi, _, _ = _stage("shift_series", per_point_series, eta, phi,
                               alpha_of_ln_re(diag.ln_re_mean))
    (ln_phi,) = log_columns(phi)
    lines = [[math.log(seg.prefactor) + seg.exponent * x for x in ln_eta]
             for seg in (fit.region1, fit.region2)]
    texts = {
        "_loglog.dat": _rows("ln_eta ln_phi fit_region1 fit_region2",
                             ln_eta, ln_phi, *lines),
        "_universal.dat": _rows("ln_eta psi bisectrix", series.ln_eta,
                                series.psi, series.ln_eta),
        "_shift.dat": _rows("x phi", [x - y for x, y in zip(ln_eta, psi)],
                            phi),
    }
    return fields, texts
