"""``benchmarks/run.py``'s corpus, loaded by path: the same bytes on every
write, the selected sample counts ROADMAP quotes, and every file loads,
each as one block that ``profiles.block_values`` reads through orjson,
never through the per-line loop; the comma and tab copies of ``p0.dat``
to the same columns."""

import importlib.util
from pathlib import Path
from unittest import mock

import orjson

from wallscale import load_profile, profiles, select_intermediate

RUN_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "run.py"


def load_run():
    spec = importlib.util.spec_from_file_location("benchmarks_run", RUN_PY)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def test_start_records():
    # one round of fresh interpreters: every metric once per tree, a
    # compile time and peak for each module of the package
    src = Path(profiles.__file__).resolve().parents[1]
    values = load_run().start_records({"a": src, "b": src}, 1)
    modules = sorted(p.stem for p in (src / "wallscale").glob("*.py"))
    assert sorted(values) == sorted([
        "import.wallscale_s", "import.maxrss_mb", "import.wallscale_peak_mb",
        "first_envelope_2_30_2000_s", "first_envelope_2_30_2000.minflt",
        *(f"compile.{m}_{q}" for m in modules for q in ("s", "peak_mb"))])
    for metric, trees in values.items():
        assert sorted(trees) == ["a", "b"]
        assert all(len(v) == 1 and v[0] >= 0 for v in trees.values())
    # the compile peaks repeat exactly
    assert values["compile.profiles_peak_mb"]["a"] == \
        values["compile.profiles_peak_mb"]["b"]


def test_corpus(tmp_path):
    run = load_run()
    first, second = tmp_path / "first", tmp_path / "second"
    for root in (first, second):
        root.mkdir()
        run.write_corpus(root)
    files = sorted(p.relative_to(first) for p in first.rglob("*"))
    assert files == sorted(p.relative_to(second) for p in second.rglob("*"))
    dats = [f for f in files if f.suffix == ".dat"]
    assert len(dats) == len(run.SIZES) * (run.PROFILES + 3)
    for f in dats:
        assert (first / f).read_bytes() == (second / f).read_bytes()
    # the per-line loop reads none of the corpus: each file is one block,
    # whose values are the list orjson.loads returned
    taken, parsed = [], []
    real, real_loads = profiles.block_values, orjson.loads

    def loads(text):
        parsed.append(real_loads(text))
        return parsed[-1]

    def spy(block):
        parsed.clear()
        values = real(block)
        taken.append("orjson" if values is not None and parsed
                     and values is parsed[0] else "lines")
        return values

    with mock.patch.object(profiles, "block_values", spy), \
            mock.patch.object(orjson, "loads", loads):
        for f in dats:
            load_profile(first / f)
    assert taken == ["orjson"] * len(dats)
    assert [len(select_intermediate(load_profile(first / f"n{n}/p0.dat")))
            for n in run.SIZES] == [25, 141, 722, 2905]
    for n in run.SIZES:
        assert len(load_profile(first / f"single-n{n}.dat")) == n
        plain = load_profile(first / f"n{n}/p0.dat")
        for name, sep in (("comma", b","), ("tab", b"\t")):
            copy = load_profile(first / f"{name}-n{n}.dat")
            assert sep in (first / f"{name}-n{n}.dat").read_bytes()
            assert copy.eta.tolist() == plain.eta.tolist()
            assert copy.phi.tolist() == plain.phi.tolist()
