import math

import numpy as np
import pytest

from wallscale import (ParseError, SynthSpec, ValidationError, generate,
                       generate_ensemble, load_synth_spec)


def same_samples(p, q):
    return np.array_equal(p.eta, q.eta) and np.array_equal(p.phi, q.phi)


def base_spec(**overrides):
    kwargs = dict(ln_re=10.69, break_ln_eta=6.0,
                  ln_eta_range=(2.0, 9.0), n_points=30)
    kwargs.update(overrides)
    return SynthSpec(**kwargs)


class TestSpecValidation:
    def test_derived_params(self):
        spec = base_spec()
        assert spec.alpha == pytest.approx(3 / (2 * 10.69), rel=1e-12)
        assert spec.prefactor == pytest.approx(10.69 / math.sqrt(3) + 2.5,
                                               rel=1e-12)

    @pytest.mark.parametrize("kwargs", [
        dict(ln_re=-1.0),
        dict(break_ln_eta=1.0),   # outside range
        dict(break_ln_eta=10.0),
        dict(ln_eta_range=(5.0, 2.0)),
        dict(n_points=6),
        dict(noise_sigma=-0.1),
        dict(plateau_points=27),  # > n_points - 4
        dict(ln_re=math.nan),
        dict(ln_re=math.inf),
        dict(beta=math.inf),
        dict(beta=math.nan),
        dict(noise_sigma=math.nan),
        dict(noise_sigma=math.inf),
        dict(shift=-math.inf),
        dict(break_ln_eta=math.nan),
        dict(ln_eta_range=(2.0, math.inf)),
        dict(ln_eta_range=(-math.inf, 9.0)),
        dict(seed=-1),
        dict(seed=-1, noise_sigma=0.01),
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ValidationError):
            base_spec(**kwargs)


class TestGenerate:
    def test_grid_and_region_values(self):
        spec = base_spec()
        profile = generate(spec)
        ln_eta = np.log(profile.eta)
        assert np.allclose(ln_eta, np.linspace(2.0, 9.0, 30), atol=1e-12)
        phi = profile.phi
        a, alpha, beta = spec.prefactor, spec.alpha, spec.beta
        b = a * math.exp(spec.break_ln_eta * (alpha - beta))
        for x, p in zip(ln_eta, phi):
            expected = (a * math.exp(alpha * x) if x < 6.0
                        else b * math.exp(beta * x))
            assert p == pytest.approx(expected, rel=1e-12)

    def test_continuity_at_break(self):
        spec = base_spec()
        a, alpha, beta = spec.prefactor, spec.alpha, spec.beta
        b = a * math.exp(spec.break_ln_eta * (alpha - beta))
        x = spec.break_ln_eta
        assert a * math.exp(alpha * x) == pytest.approx(
            b * math.exp(beta * x), rel=1e-12)

    def test_noiseless_is_deterministic_and_seed_free(self):
        p1 = generate(base_spec(seed=0))
        p2 = generate(base_spec(seed=99))
        assert same_samples(p1, p2)

    def test_seeded_noise_reproducible(self):
        p1 = generate(base_spec(noise_sigma=0.02, seed=5))
        p2 = generate(base_spec(noise_sigma=0.02, seed=5))
        p3 = generate(base_spec(noise_sigma=0.02, seed=6))
        assert same_samples(p1, p2)
        assert not same_samples(p1, p3)

    def test_noise_is_lognormal_multiplicative(self):
        spec = base_spec(noise_sigma=0.02, seed=11)
        clean = generate(base_spec()).phi
        noisy = generate(spec).phi
        draws = np.random.default_rng(11).normal(0.0, 0.02, 30)
        assert np.allclose(noisy, clean * np.exp(draws), rtol=1e-12)

    def test_shift_injection(self):
        spec = base_spec(shift=0.7)
        clean = generate(base_spec())
        shifted = generate(spec)
        factor = math.exp(-spec.alpha * 0.7)
        ln_eta = np.log(clean.eta)
        for x, pc, ps in zip(ln_eta, clean.phi, shifted.phi):
            if x < spec.break_ln_eta:
                assert ps == pytest.approx(pc * factor, rel=1e-12)
            else:
                assert ps == pytest.approx(pc, rel=1e-12)

    def test_plateau_pinned_after_noise(self):
        spec = base_spec(noise_sigma=0.02, seed=3, plateau_points=5)
        phi = generate(spec).phi
        assert np.all(phi[-5:] == phi[-6])

    def test_default_label(self):
        profile = generate(base_spec(seed=4, noise_sigma=0.01))
        assert "lnRe=10.69" in profile.metadata.label
        assert "seed=4" in profile.metadata.label
        assert generate(base_spec(label="mine")).metadata.label == "mine"


class TestEnsemble:
    def test_sequential_seeds(self):
        spec = base_spec(noise_sigma=0.02, seed=10)
        ensemble = generate_ensemble(spec, 3)
        assert len(ensemble) == 3
        assert same_samples(ensemble[1], generate(base_spec(
            noise_sigma=0.02, seed=11)))
        assert not same_samples(ensemble[0], ensemble[2])

    def test_rejects_zero(self):
        with pytest.raises(ValidationError):
            generate_ensemble(base_spec(), 0)


class TestLoadSynthSpec:
    def test_full_file(self, tmp_path):
        path = tmp_path / "s.spec"
        path.write_text("# demo spec\n"
                        "ln_re=10.69\nbeta=0.21\nbreak_ln_eta=6.0\n"
                        "ln_eta_min=2.0\nln_eta_max=9.0\nn_points=30\n"
                        "noise_sigma=0.01\nshift=0.5\nplateau_points=4\n"
                        "seed=7\nlabel=demo\n")
        spec = load_synth_spec(path)
        assert spec == SynthSpec(ln_re=10.69, break_ln_eta=6.0,
                                 ln_eta_range=(2.0, 9.0), n_points=30,
                                 beta=0.21, noise_sigma=0.01, shift=0.5,
                                 plateau_points=4, seed=7, label="demo")

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "s.spec"
        path.write_text("ln_re=10.69\nbreak_ln_eta=6.0\n"
                        "ln_eta_min=2.0\nln_eta_max=9.0\n")
        with pytest.raises(ValidationError, match="n_points"):
            load_synth_spec(path)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "s.spec"
        path.write_text("bogus=1\n")
        with pytest.raises(ParseError) as err:
            load_synth_spec(path)
        assert err.value.line == 1

    def test_bad_value(self, tmp_path):
        path = tmp_path / "s.spec"
        path.write_text("ln_re=ten\n")
        with pytest.raises(ParseError):
            load_synth_spec(path)
