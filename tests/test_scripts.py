"""The tools under scripts/ that drive the CLI, and the printed bytes of
the benchmark workloads against tests/golden/."""

import functools
import importlib.util
import math
import re
from collections import Counter
from pathlib import Path

import pytest

from ktangle import cli, roof

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("audit", "analyze_wide", "roof", "forms3")


@functools.cache
def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.cache
def _lines(workload, seed):
    """The digest lines of the workload's first cycle at seed, made once per
    session: the golden test and the workload's own test share them."""
    return _load("cli_digests").digest_lines(workload, seed, n_cycles=1)


def _golden(workload):
    """(header, {seed: lines}) of tests/golden/<workload>.txt."""
    header, sections = [], {}
    for line in (ROOT / "tests" / "golden" / f"{workload}.txt").read_text().splitlines():
        if line.startswith("# seed "):
            lines = sections[int(line.split()[-1])] = []
        elif line.startswith("# "):
            header.append(line)
        else:
            lines.append(line)
    return header, sections


def _moved(got, want) -> str:
    """The classes whose lines differ, with their counts."""
    moved = Counter(g.split()[0] for g, w in zip(got, want) if g != w)
    return f"{len(got)} lines against {len(want)}; moved by class: {dict(moved)}"


def _golden_or_skip(workload):
    """{seed: lines} of the golden file; on another build, a skip that names
    both builds."""
    header, sections = _golden(workload)
    build = _load("cli_digests").build_lines()
    if header != build:
        made, here = (", ".join(line[2:] for line in lines) for lines in (header, build))
        pytest.skip(f"golden bytes were made on {made}; this is {here}")
    return sections


def _first_cycle(workload):
    """The seed-7 lines of the first cycle.  On the build that made the
    golden file they must equal its lines; on another build, a second run."""
    got, digests = _lines(workload, 7), _load("cli_digests")
    header, sections = _golden(workload)
    if header == digests.build_lines():
        want = sections[7]
    else:
        want = digests.digest_lines(workload, 7, n_cycles=1)
    assert got == want, _moved(got, want)
    return got


@pytest.mark.parametrize("workload", WORKLOADS)
def test_printed_bytes_match_the_golden_file(workload):
    # every command of the first cycle at seeds 7 and 8; a change that
    # moves bytes rewrites the file (scripts/cli_digests.py --golden)
    sections = _golden_or_skip(workload)
    assert sorted(sections) == [7, 8]
    for seed, want in sections.items():
        got = _lines(workload, seed)
        assert got == want, f"seed {seed}: {_moved(got, want)}"


def test_a_last_digit_change_fails_the_golden_file(monkeypatch):
    # one unit more in the 12th significant digit of every number that
    # cli._sig12 rounds: the forms3 documents move, its CSV sweeps do not
    want, sig12 = _golden_or_skip("forms3")[7], cli._sig12

    def seeded(x):
        y = sig12(x)
        if y == 0.0 or not math.isfinite(y):
            return y
        return y + math.copysign(10.0 ** (math.floor(math.log10(abs(y))) - 11), y)

    monkeypatch.setattr(cli, "_sig12", seeded)
    got = _load("cli_digests").digest_lines("forms3", 7, n_cycles=1)
    moved = {g.split()[0] for g, w in zip(got, want) if g != w}
    assert moved == {"canonicalize", "analyze_canonical", "total"}


def test_a_changed_k2_draw_stream_fails_the_golden_file(monkeypatch):
    # one drawn step of every restart turns the other way: the k2 searches
    # move, the exact global roofs, which draw nothing, do not.  A rejected
    # step moves nothing, so the step is one both searches of the seed-7
    # cycle accept (11 of the rank-2 search's first 400 steps move it)
    want, draws, step = _golden_or_skip("roof")[7], roof._draws, 7

    def seeded(g, m, iters, start=0):
        pairs, coefs = draws(g, m, iters, start)
        if start <= step < start + iters:
            coefs[step - start, 1:] *= -1.0  # (c, s e, -s e*) of the angle -t
        return pairs, coefs

    monkeypatch.setattr(roof, "_draws", seeded)
    got = _load("cli_digests").digest_lines("roof", 7, n_cycles=1)
    moved = {g.split()[0] for g, w in zip(got, want) if g != w}
    assert moved == {"k2q3r2", "k2q3r3", "total"}


def test_cli_digests_repeat_on_one_audit_cycle():
    commands, total = _first_cycle("audit")[:-1], _lines("audit", 7)[-1]
    assert [line.split()[:2] for line in commands] == [
        ["audit3", "0"], ["audit3", "0"], ["audit4", "0"], ["audit3", "0"], ["audit3", "0"]
    ]
    assert all(re.fullmatch(r"[0-9a-f]{64}", line.split()[2]) for line in commands)
    assert re.fullmatch(r"total 5 [0-9a-f]{64}", total)
    # the inputs are seeded: another seed gives other commands
    assert _lines("audit", 8)[-1] != total


def test_cli_digests_do_not_name_the_input_directory():
    # forms3 commands read files and print their paths: each run, the
    # golden file's included, writes them in a new temporary directory
    assert len(_first_cycle("forms3")) == 11


def test_cli_digests_repeat_on_one_roof_cycle():
    # the k2 commands run the search, whose draws come from each restart's
    # own seeded stream
    first = _first_cycle("roof")
    commands, total = first[:-1], first[-1]
    assert [line.split()[:2] for line in commands] == [
        [cls, "0"]
        for cls in ("global2", "global3", "global2", "global3", "k2q3r2",
                    "global2", "global3", "global2", "global3", "k2q3r3")
    ]
    assert all(re.fullmatch(r"[0-9a-f]{64}", line.split()[2]) for line in commands)
    assert re.fullmatch(r"total 10 [0-9a-f]{64}", total)


def test_cli_digests_repeat_on_one_analyze_wide_cycle():
    # the 5- to 9-qubit reports, pure and mixed, print the same bytes on
    # every run; no command lets an exception escape the CLI
    first = _first_cycle("analyze_wide")
    commands, total = first[:-1], first[-1]
    classes = {line.split()[0] for line in commands}
    assert classes == {"allfoci5", "pure7", "pure8", "pure9", "mixed6", "mixed7", "mixed8"}
    assert all(line.split()[1].isdigit() for line in commands)
    assert re.fullmatch(rf"total {len(commands)} [0-9a-f]{{64}}", total)
