"""Correctness gate: checks each pass's outputs against the generator's
known truth and the closed-form envelope, never against output bytes.

An item is a profile (``lab_batch``, ``dns_analyze``) or an envelope
abscissa (``envelope_grid``).  ``check`` returns the items attempted and one
message per failed item; ``failed_frac`` is their ratio.  Tolerances are the
ones the seed program meets on every item of every corpus tried (they widen
with the noise level); noiseless items are held to rounding error.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from workloads import SQRT3, Corpus, ProfileTruth, law_prefactor

# Per noise level: ln Re (mean, or the exponent estimate for shifted
# profiles), split index, break position in ln eta (unshifted profiles),
# region exponents, and samples kept by the excision.
TOLERANCES = {
    0.0: dict(ln_re=1e-8, split=0, brk=1e-8, exponent=1e-9, kept=0),
    1e-4: dict(ln_re=0.01, split=10, brk=0.01, exponent=1e-4, kept=0),
    0.003: dict(ln_re=1.2, split=4, brk=0.4, exponent=0.015, kept=1),
    0.01: dict(ln_re=4.0, split=10, brk=1.5, exponent=0.06, kept=6),
}
# The break must be significant (beta reported) up to this noise level.
BETA_REQUIRED_MAX_SIGMA = 0.003

PLOT_SUFFIXES = ("_loglog.dat", "_universal.dat", "_shift.dat", "_report.txt")
TABLE_COLUMNS = ("label", "re_theta", "alpha", "a", "ln_re1", "ln_re2",
                 "ln_re", "disc", "re_theta_over_re", "beta", "shift",
                 "shift_class")


def read_kv(text: str) -> dict[str, str]:
    """``key=value`` lines; ``#`` comments and blank lines are skipped."""
    values = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"not a key=value line: {line!r}")
        values[key.strip()] = value.strip()
    return values


def parse_table(text: str) -> dict[str, dict[str, str]]:
    """Rows of the CLI summary table keyed by label (labels hold no spaces)."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("label"):
        raise ValueError("missing table header")
    rows = {}
    for line in lines[1:]:
        cells = line.split()
        if len(cells) != len(TABLE_COLUMNS):
            raise ValueError(f"table row with {len(cells)} cells: {line!r}")
        rows[cells[0]] = dict(zip(TABLE_COLUMNS, cells))
    return rows


def touch_point(x):
    """Closed-form envelope touch point: L* solves L^2 - 1.5 x L
    - (15 sqrt(3)/2) x = 0, and phi* is the family member at L*."""
    x = np.asarray(x, dtype=float)
    ln_re = (1.5 * x + np.sqrt(2.25 * x * x + 15.0 * SQRT3 * x)) / 2.0
    phi = law_prefactor(ln_re) * np.exp(1.5 * x / ln_re)
    return phi, ln_re


def _float_rows(path: Path, columns: int) -> list[list[float]]:
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    rows = [[float(v) for v in line.split()] for line in lines]
    if any(len(r) != columns for r in rows):
        raise ValueError(f"{path.name}: expected {columns} columns")
    return rows


def _close(got: float, want: float, tol: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= tol


def _check_report(truth: ProfileTruth, rep: dict[str, str]) -> list[str]:
    tol = TOLERANCES[truth.noise_sigma]
    errors = []
    if rep.get("label") != truth.label:
        errors.append(f"label {rep.get('label')!r}")
    if truth.shift:
        # A shift biases the prefactor estimate by design; the exponent
        # estimate and the class must still be right.
        if not _close(float(rep["ln_re2"]), truth.ln_re, tol["ln_re"]):
            errors.append(f"ln_re2 {rep['ln_re2']} vs {truth.ln_re!r}")
        if rep["shift_class"] != "shifted_below":
            errors.append(f"shift_class {rep['shift_class']}")
    else:
        if not _close(float(rep["ln_re"]), truth.ln_re, tol["ln_re"]):
            errors.append(f"ln_re {rep['ln_re']} vs {truth.ln_re!r}")
        if not _close(float(rep["break_ln_eta"]), truth.break_ln_eta,
                      tol["brk"]):
            errors.append(f"break_ln_eta {rep['break_ln_eta']} vs "
                          f"{truth.break_ln_eta!r}")
    if abs(int(rep["split_index"]) - truth.split_index) > tol["split"]:
        errors.append(f"split_index {rep['split_index']} vs "
                      f"{truth.split_index}")
    if not _close(float(rep["alpha"]), truth.alpha, tol["exponent"]):
        errors.append(f"alpha {rep['alpha']} vs {truth.alpha!r}")
    if rep["beta"] == "none":
        if truth.noise_sigma <= BETA_REQUIRED_MAX_SIGMA:
            errors.append("break not significant")
    elif not _close(float(rep["beta"]), truth.beta, tol["exponent"]):
        errors.append(f"beta {rep['beta']} vs {truth.beta!r}")
    return errors


def _check_lab_item(truth: ProfileTruth, out_dir: Path,
                    row: dict[str, str] | None) -> list[str]:
    tol = TOLERANCES[truth.noise_sigma]
    if row is None:
        return ["no summary table row"]
    rep = read_kv((out_dir / f"{truth.stem}_report.txt")
                  .read_text(encoding="utf-8"))
    errors = _check_report(truth, rep)
    if row["shift_class"] != rep.get("shift_class"):
        errors.append("table and report disagree on shift_class")
    loglog = _float_rows(out_dir / f"{truth.stem}_loglog.dat", 4)
    if abs(len(loglog) - truth.n_intermediate) > tol["kept"]:
        errors.append(f"{len(loglog)} samples kept, expected "
                      f"{truth.n_intermediate}")
    universal = _float_rows(out_dir / f"{truth.stem}_universal.dat", 3)
    if len(universal) != int(rep["split_index"]):
        errors.append(f"{len(universal)} universal points for split "
                      f"{rep['split_index']}")
    if len(_float_rows(out_dir / f"{truth.stem}_shift.dat", 2)) != len(loglog):
        errors.append("shift series length differs from the profile")
    return errors


def check_envelope_rows(rows: list[list[float]], xs) -> list[str]:
    """One message per abscissa whose row is missing or off the closed form."""
    phi, ln_re = (a.tolist() for a in touch_point(xs))
    errors = []
    for i, x in enumerate(map(float, xs)):
        if i >= len(rows):
            errors.append(f"x={x!r}: missing row")
            continue
        rx, rphi, rl, rlog = rows[i]
        if not (_close(rx, x, 1e-9 * max(1.0, abs(x)))
                and _close(rphi, phi[i], 1e-9 * phi[i])
                and _close(rl, ln_re[i], 1e-5 * ln_re[i])
                and _close(rlog, x / 0.4 + 5.1, 1e-9 * (x / 0.4 + 5.1))):
            errors.append(f"x={x!r}: row {rows[i]} vs phi={phi[i]!r} "
                          f"ln_re={ln_re[i]!r}")
    if len(rows) > len(xs):
        errors.append(f"{len(rows) - len(xs)} extra rows")
    return errors


def _check_lab(corpus: Corpus, result) -> tuple[int, list[str]]:
    attempted = len(corpus.truths)
    (call,) = result.calls
    # Exit 13 is a partial batch: the files that failed have no outputs.
    if call.code not in (0, 13):
        return attempted, [f"batch exit {call.code}: {call.stderr.strip()}"
                           ] * attempted
    out_dir = result.out_dir
    expected = {"envelope.dat"} | {t.stem + s for t in corpus.truths
                                   for s in PLOT_SUFFIXES}
    # A batch in which every profile failed creates no directory.
    present = ({p.name for p in out_dir.iterdir()} if out_dir.is_dir()
               else set())
    if present - expected:
        return attempted, [f"unexpected output {sorted(present - expected)}"
                           ] * attempted
    try:
        env_errors = check_envelope_rows(_float_rows(out_dir / "envelope.dat", 4),
                                         np.linspace(5.0, 10.0, 50))
    except (OSError, ValueError) as exc:
        env_errors = [repr(exc)]
    try:
        table = parse_table(call.stdout)
    except ValueError as exc:
        return attempted, [f"summary table: {exc}"] * attempted
    failures = []
    for truth in corpus.truths:
        missing = [truth.stem + s for s in PLOT_SUFFIXES
                   if truth.stem + s not in present]
        if missing:
            errors = [f"missing {missing}"]
        else:
            try:
                errors = _check_lab_item(truth, out_dir, table.get(truth.label))
            except (ValueError, KeyError) as exc:
                errors = [f"unreadable output: {exc!r}"]
        errors += [f"envelope.dat {e}" for e in env_errors[:1]]
        if errors:
            failures.append(f"{truth.label}: {'; '.join(errors)}")
    return attempted, failures


def _check_dns(corpus: Corpus, result) -> tuple[int, list[str]]:
    truths = sorted(corpus.truths, key=lambda t: t.stem)
    failures = []
    for truth, call in zip(truths, result.calls):
        errors = []
        tol = TOLERANCES[truth.noise_sigma]
        if call.code != 0:
            errors.append(f"exit {call.code}: {call.stderr.strip()}")
        else:
            try:
                row = parse_table(call.stdout)[truth.label]
                # Table cells are rounded: 2 decimals for ln Re, 3 for
                # exponents.
                if not _close(float(row["ln_re"]), truth.ln_re,
                              tol["ln_re"] + 0.005):
                    errors.append(f"ln_re {row['ln_re']} vs {truth.ln_re!r}")
                if not _close(float(row["alpha"]), truth.alpha,
                              tol["exponent"] + 0.0005):
                    errors.append(f"alpha {row['alpha']} vs {truth.alpha!r}")
                if row["beta"] == "--" or not _close(
                        float(row["beta"]), truth.beta,
                        tol["exponent"] + 0.0005):
                    errors.append(f"beta {row['beta']} vs {truth.beta!r}")
                if row["shift_class"] != "collapsed":
                    errors.append(f"shift_class {row['shift_class']}")
            except (ValueError, KeyError) as exc:
                errors.append(f"unreadable output: {exc!r}")
        if errors:
            failures.append(f"{truth.label}: {'; '.join(errors)}")
    return len(truths), failures


def _envelope_grid(args) -> np.ndarray:
    opts = dict(zip(args[::2], args[1::2]))
    return np.linspace(float(opts["--ln-eta-min"]),
                       float(opts["--ln-eta-max"]),
                       int(opts["--n-points"]))


def _check_envelope(corpus: Corpus, result) -> tuple[int, list[str]]:
    xs = _envelope_grid(corpus.args)
    (call,) = result.calls
    if call.code != 0:
        return len(xs), [f"envelope exit {call.code}"] * len(xs)
    try:
        rows = _float_rows(result.out_dir / "envelope.dat", 4)
        failures = check_envelope_rows(rows, xs)
        # stderr reports the straight-line fit of the envelope with 4
        # decimals; refit the closed form over the same grid.
        fit = read_kv(call.stderr.replace("effective log law:", "")
                      .replace(" ", "\n"))
        slope, intercept = np.polyfit(xs, touch_point(xs)[0], 1)
        if not (_close(float(fit["kappa"]), 1.0 / slope, 2e-4)
                and _close(float(fit["C"]), intercept, 2e-4)):
            return len(xs), [f"log-law fit {call.stderr.strip()!r} vs "
                             f"kappa={1.0 / slope:.6f} C={intercept:.6f}"
                             ] * len(xs)
    except (OSError, ValueError, KeyError) as exc:
        return len(xs), [f"unreadable output: {exc!r}"] * len(xs)
    return len(xs), failures


def check(corpus: Corpus, result) -> tuple[int, list[str]]:
    """(items attempted, one message per failed item) for one pass."""
    attempted, failures = {"lab_batch": _check_lab, "dns_analyze": _check_dns,
                           "envelope_grid": _check_envelope}[corpus.workload](
        corpus, result)
    return attempted, failures[:attempted]
