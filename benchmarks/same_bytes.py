"""Check that source trees give the same bytes on the benchmark's corpora.

    python3 benchmarks/same_bytes.py --tree parent=/path/to/parent/src \
        --tree change=src [--seeds 1 2 3]

Needs only numpy and the standard library.  For each seed it writes the
wsbench ``lab_batch`` and ``dns_analyze`` corpora with
``wsbench/workloads.py`` (``make_lab`` and ``make_dns``, imported as they
are) into a temporary directory, and an aligned copy of the lab corpus:
each data row re-separated by two spaces, which JSON refuses, so that
every file is read by the loader's per-line loop, and one row of the
first file given an ``inf`` phi, which that loop rejects; and a faults
copy of the lab corpus, each file with one fault that the loader
locates by its line (see ``faults_copy``).  Each
``NAME=SRC`` tree then runs, in a child interpreter with
``PYTHONPATH=SRC``, ``python -m wallscale batch DIR`` on each corpus
without and with ``--out-dir OUT``, then ``envelope`` and ``envelope
--ln-eta-min 2 --ln-eta-max 30 --n-points 2000 --out-dir OUT``.  The
trees write to the same ``OUT`` in turn, and it is emptied before each
command, so paths in messages agree.

Every tree after the first is compared with the first: each command's
exit code, stdout and stderr, and every file it wrote.  The script prints
one line per difference and exits 1 if there is any; otherwise it prints
what it compared and exits 0.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ENVELOPE_GRID = ("--ln-eta-min", "2", "--ln-eta-max", "30",
                 "--n-points", "2000")


def aligned_copy(corpus: Path, copy: Path) -> None:
    """Write each file of ``corpus`` to ``copy`` with the two fields of
    each data row (a line that is neither blank, a comment nor metadata)
    joined by two spaces; in the first file, by name, the phi of the
    middle row becomes ``inf``."""
    copy.mkdir()
    for number, path in enumerate(sorted(corpus.glob("*.dat"))):
        lines = path.read_text(encoding="utf-8").splitlines()
        rows = [i for i, line in enumerate(lines)
                if line.strip() and line[0] != "#" and "=" not in line]
        for i in rows:
            lines[i] = "  ".join(re.split(r"[ \t,]+", lines[i].strip()))
        if number == 0:
            middle = rows[len(rows) // 2]
            lines[middle] = lines[middle].split("  ")[0] + "  inf"
        (copy / path.name).write_text("\n".join(lines) + "\n",
                                      encoding="utf-8")


def faults_copy(corpus: Path, copy: Path) -> None:
    """Write each file of ``corpus`` to ``copy`` with one fault, the
    files taking these in turn by name: the middle row's phi made ``-1``
    (read as a block, then rejected by the profile) or ``0`` (read by the
    per-line loop, which the zero sends it to), a ``re_theta=-1`` line
    before the first row (a metadata error), a third field on the middle
    row (a parse error), or the middle row's eta made the previous row's
    (an ordering error)."""
    copy.mkdir()
    for number, path in enumerate(sorted(corpus.glob("*.dat"))):
        lines = path.read_text(encoding="utf-8").splitlines()
        rows = [i for i, line in enumerate(lines)
                if line.strip() and line[0] != "#" and "=" not in line]
        middle = rows[len(rows) // 2]
        eta, sep, phi = re.split(r"([ \t,]+)", lines[middle], maxsplit=1)
        previous = re.split(r"[ \t,]+", lines[rows[len(rows) // 2 - 1]])[0]
        fault = number % 5
        if fault == 2:
            lines.insert(rows[0], "re_theta=-1")
        else:
            lines[middle] = [eta + sep + "-1", eta + sep + "0", None,
                             lines[middle] + sep + phi,
                             previous + sep + phi][fault]
        (copy / path.name).write_text("\n".join(lines) + "\n",
                                      encoding="utf-8")


def commands(root: Path, seeds) -> list[tuple[str, list[str]]]:
    """(label, wallscale argv) of each command, writing each seed's
    corpora under ``root``; ``OUT`` stands for the output directory."""
    sys.path.append(str(Path(__file__).resolve().parents[1] / "wsbench"))
    import workloads
    out = []
    for seed in seeds:
        workloads.make_lab(seed, root / f"lab-{seed}")
        workloads.make_dns(seed, root / f"dns-{seed}")
        aligned_copy(root / f"lab-{seed}", root / f"lab-aligned-{seed}")
        faults_copy(root / f"lab-{seed}", root / f"lab-faults-{seed}")
        for name in ("lab", "dns", "lab-aligned", "lab-faults"):
            corpus = root / f"{name}-{seed}"
            label = f"seed {seed} {name}: batch"
            out.append((label, ["batch", str(corpus)]))
            out.append((f"{label} --out-dir",
                        ["batch", str(corpus), "--out-dir", "OUT"]))
    out.append(("envelope", ["envelope"]))
    out.append(("envelope grid --out-dir",
                ["envelope", *ENVELOPE_GRID, "--out-dir", "OUT"]))
    return out


def run(src: Path, argv: list[str], out_dir: Path) -> dict:
    """Exit code, stdout, stderr and ``{relative path: bytes}`` of the
    files in ``out_dir`` after ``python -m wallscale`` with ``argv``."""
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = [str(out_dir) if arg == "OUT" else arg for arg in argv]
    proc = subprocess.run([sys.executable, "-m", "wallscale", *argv],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, cwd=out_dir.parent)
    files = {}
    if out_dir.is_dir():
        files = {str(path.relative_to(out_dir)): path.read_bytes()
                 for path in sorted(out_dir.rglob("*")) if path.is_file()}
    return {"exit code": proc.returncode, "stdout": proc.stdout,
            "stderr": proc.stderr, "files": files}


def first_line_apart(a: bytes, b: bytes) -> int:
    """The number, from 1, of the first line in which ``a`` and ``b``
    differ."""
    for number, (x, y) in enumerate(zip(a.splitlines(), b.splitlines()), 1):
        if x != y:
            return number
    return min(a.count(b"\n"), b.count(b"\n")) + 1


def differences(label: str, name: str, base: dict, other: dict) -> list:
    """One line per way in which ``other`` (tree ``name``) differs from
    ``base`` (the first tree) for the command ``label``."""
    lines = []
    if base["exit code"] != other["exit code"]:
        lines.append(f"{label}: {name}: exit code {other['exit code']}, "
                     f"not {base['exit code']}")
    for stream in ("stdout", "stderr"):
        if base[stream] != other[stream]:
            lines.append(f"{label}: {name}: {stream} differs from line "
                         f"{first_line_apart(base[stream], other[stream])}")
    for path in sorted(base["files"].keys() | other["files"].keys()):
        a, b = base["files"].get(path), other["files"].get(path)
        if a is None or b is None:
            lines.append(f"{label}: {name}: {path} "
                         f"{'only' if a is None else 'not'} written")
        elif a != b:
            lines.append(f"{label}: {name}: {path} differs from line "
                         f"{first_line_apart(a, b)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", default=[],
                        metavar="NAME=SRC")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args(argv)
    trees = {}
    for spec in args.tree:
        name, _, src = spec.partition("=")
        if not name or not src or name in trees:
            parser.error(f"--tree {spec!r}: expected a new NAME=SRC")
        trees[name] = Path(src).resolve()
    if len(trees) < 2:
        parser.error("at least two --tree are required")

    found, runs, files = [], 0, 0
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for label, command in commands(root, args.seeds):
            (_, base), *others = [(name, run(src, command, root / "out"))
                                  for name, src in trees.items()]
            runs, files = runs + 1, files + len(base["files"])
            for name, result in others:
                found += differences(label, name, base, result)
    for line in found:
        print(line)
    names = ", ".join(trees)
    if found:
        print(f"{len(found)} differences among {names}")
        return 1
    print(f"no difference among {names}: {runs} commands, {files} output "
          f"files of the first tree, seeds {' '.join(map(str, args.seeds))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
