"""Seeded workload generator for the wallscale benchmark.

Uses only numpy and the standard library, never ``wallscale.synthetic`` or
``save_profile``, so a change to the program cannot change the bytes a
workload feeds it.  Every profile is written by this module in the
``wall_units`` text format and comes with the truth it was generated from.

The set of profile sizes, noise levels, shifts and plateau lengths in a
corpus is the same for every seed; the seed only permutes them and draws
the continuous parameters.  That keeps the work per pass nearly
independent of the seed, so runs with different seeds are comparable.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SQRT3 = math.sqrt(3.0)
# The pipeline's default sublayer cutoff, lg_eta_min = 1.5, in ln eta.
SUBLAYER_CUT = 1.5 * math.log(10.0)
# The pipeline's default phi_plateau_tol.
PLATEAU_TOL = 0.002

LAB_NOISE = (0.0, 0.003, 0.01)
DNS_NOISE = (0.0, 1e-4)

ENVELOPE_ARGS = ("--ln-eta-min", "2", "--ln-eta-max", "30",
                 "--n-points", "2000")


@dataclass(frozen=True)
class ProfileTruth:
    """What one generated profile was made from."""

    stem: str
    label: str
    ln_re: float
    alpha: float
    beta: float
    break_ln_eta: float
    shift: float
    noise_sigma: float
    n_total: int
    n_sublayer: int
    n_plateau: int
    split_index: int      # samples before the break, counted after excision

    @property
    def n_intermediate(self) -> int:
        return self.n_total - self.n_sublayer - self.n_plateau


@dataclass(frozen=True)
class Corpus:
    """A generated workload input: profile files, or CLI arguments."""

    workload: str
    seed: int
    directory: Path | None
    truths: tuple[ProfileTruth, ...]
    args: tuple[str, ...]
    digest: str

    @property
    def items(self) -> int:
        """Items one pass handles: profiles, or envelope abscissae."""
        if self.truths:
            return len(self.truths)
        return int(self.args[self.args.index("--n-points") + 1])


def law_prefactor(ln_re: float) -> float:
    return ln_re / SQRT3 + 2.5


def _profile(rng, stem, n_total, n_sublayer, n_plateau, sigma, shift,
             re_theta, sep, x_span):
    """Draw one profile; return (file text, truth)."""
    ln_re = rng.uniform(7.0, 14.0)
    alpha = 1.5 / ln_re
    beta = alpha + rng.uniform(0.06, 0.12)
    m = n_total - n_sublayer - n_plateau
    x_top = rng.uniform(*x_span)
    h = (x_top - SUBLAYER_CUT) / (m - 0.5)
    x0 = SUBLAYER_CUT + rng.uniform(0.1, 0.9) * h
    k = int(rng.integers(round(0.35 * m), round(0.65 * m) + 1))
    brk = x0 + (k - 1 + rng.uniform(0.25, 0.75)) * h
    x = x0 + h * np.arange(-n_sublayer, m + n_plateau)

    a = law_prefactor(ln_re)
    b = a * math.exp(brk * (alpha - beta))
    inner = x < brk
    phi = np.where(inner, a * np.exp(alpha * x), b * np.exp(beta * x))
    if shift:
        phi = np.where(inner, phi * math.exp(-alpha * shift), phi)
    if sigma:
        # The pipeline excises a trailing plateau only within PLATEAU_TOL of
        # the running maximum, so noise that puts an earlier sample above the
        # plateau level (the last region-II sample) would leave no plateau
        # by that rule: draw that profile's noise again.
        while True:
            noisy = phi * np.exp(rng.normal(0.0, sigma, x.size))
            region = noisy[n_sublayer:x.size - n_plateau]
            if not n_plateau or region[-1] >= (1 - PLATEAU_TOL) * region.max():
                break
        phi = noisy
    eta = np.exp(x)
    # Sublayer samples follow the linear law phi = eta where it is lower.
    phi[:n_sublayer] = np.minimum(phi[:n_sublayer], eta[:n_sublayer])
    if n_plateau:
        phi[-n_plateau:] = phi[-n_plateau - 1]

    label = stem
    lines = ["# generated velocity profile", f"label={label}"]
    if re_theta:
        lines.append(f"re_theta={float(math.exp(ln_re) * re_theta)!r}")
    lines += [f"{float(e)!r}{sep}{float(p)!r}" for e, p in zip(eta, phi)]
    truth = ProfileTruth(
        stem=stem, label=label, ln_re=ln_re, alpha=alpha, beta=beta,
        break_ln_eta=brk, shift=shift, noise_sigma=sigma, n_total=n_total,
        n_sublayer=n_sublayer, n_plateau=n_plateau, split_index=k)
    return "\n".join(lines) + "\n", truth


def lab_specs(count: int, rng):
    """Per-profile (n, sublayer, plateau, sigma, shift, re_theta, sep) for
    a lab corpus: sizes spread evenly over 24..64, a fixed share of noise
    levels, shifts and plateaus, then shuffled."""
    specs = []
    for i in range(count):
        n_total = 24 + (i * 41) // count
        sigma = LAB_NOISE[i % 3]
        shift = 1.0 + 0.5 * ((i // 3) % 3) if i % 5 == 4 else 0.0
        n_plateau = (i // 2) % 4 if i % 2 else 0
        re_theta = 0.5 + (i % 7) / 6.0 if i % 2 == 0 else 0.0
        sep = (" ", ",", "\t")[(i // 3) % 3]
        specs.append((n_total, 3, n_plateau, sigma, shift, re_theta, sep))
    order = rng.permutation(count)
    return [specs[j] for j in order]


def digest_dir(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def make_lab(seed: int, directory: Path, count: int = 50) -> Corpus:
    rng = np.random.default_rng([seed, 1])
    directory.mkdir(parents=True, exist_ok=True)
    truths = []
    for i, spec in enumerate(lab_specs(count, rng)):
        n_total, n_sub, n_plat, sigma, shift, re_theta, sep = spec
        text, truth = _profile(rng, f"lab-{i:04d}", n_total, n_sub, n_plat,
                               sigma, shift, re_theta, sep, (9.0, 11.0))
        (directory / f"{truth.stem}.dat").write_text(text, encoding="utf-8")
        truths.append(truth)
    return Corpus("lab_batch", seed, directory, tuple(truths), (),
                  digest_dir(directory))


def make_dns(seed: int, directory: Path,
             sizes=(1000, 1200, 1400)) -> Corpus:
    rng = np.random.default_rng([seed, 2])
    directory.mkdir(parents=True, exist_ok=True)
    truths = []
    for i, n_total in enumerate(sizes):
        sigma = DNS_NOISE[i % 2]
        text, truth = _profile(rng, f"dns-{i:02d}", n_total, 40, 3, sigma,
                               0.0, 1.0, " ", (10.0, 11.0))
        (directory / f"{truth.stem}.dat").write_text(text, encoding="utf-8")
        truths.append(truth)
    return Corpus("dns_analyze", seed, directory, tuple(truths), (),
                  digest_dir(directory))


def make_envelope(seed: int, args=ENVELOPE_ARGS) -> Corpus:
    """The envelope grid is fixed by its arguments; the seed changes
    nothing, and the digest covers the argument list."""
    digest = hashlib.sha256("\0".join(args).encode()).hexdigest()
    return Corpus("envelope_grid", seed, None, (), tuple(args), digest)
