"""``benchmarks/run.py``'s corpus, loaded by path: the same bytes on every
write, the selected sample counts ROADMAP quotes, and every file loads,
each through ``profiles.block_values``; the comma copy of ``p0.dat`` to
the same columns."""

import importlib.util
from pathlib import Path
from unittest import mock

from wallscale import load_profile, profiles, select_intermediate

RUN_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "run.py"


def test_corpus(tmp_path):
    spec = importlib.util.spec_from_file_location("benchmarks_run", RUN_PY)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    first, second = tmp_path / "first", tmp_path / "second"
    for root in (first, second):
        root.mkdir()
        run.write_corpus(root)
    files = sorted(p.relative_to(first) for p in first.rglob("*"))
    assert files == sorted(p.relative_to(second) for p in second.rglob("*"))
    dats = [f for f in files if f.suffix == ".dat"]
    assert len(dats) == len(run.SIZES) * (run.PROFILES + 2)
    for f in dats:
        assert (first / f).read_bytes() == (second / f).read_bytes()
    # the per-line loop reads none of the corpus: each file is one block
    taken, real = [], profiles.block_values

    def spy(block):
        values = real(block)
        taken.append("lines" if values is None else "block")
        return values

    with mock.patch.object(profiles, "block_values", spy):
        for f in dats:
            load_profile(first / f)
    assert taken == ["block"] * len(dats)
    assert [len(select_intermediate(load_profile(first / f"n{n}/p0.dat")))
            for n in run.SIZES] == [25, 141, 722, 2905]
    for n in run.SIZES:
        assert len(load_profile(first / f"single-n{n}.dat")) == n
        comma = load_profile(first / f"comma-n{n}.dat")
        plain = load_profile(first / f"n{n}/p0.dat")
        assert b"," in (first / f"comma-n{n}.dat").read_bytes()
        assert comma.eta.tolist() == plain.eta.tolist()
        assert comma.phi.tolist() == plain.phi.tolist()
