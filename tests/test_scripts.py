"""The tools under scripts/ that drive the CLI."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_digests_repeat_on_one_audit_cycle():
    digests = _load("cli_digests")
    first = digests.digest_lines("audit", 3, n_cycles=1)
    assert first == digests.digest_lines("audit", 3, n_cycles=1)
    commands, total = first[:-1], first[-1]
    assert [line.split()[:2] for line in commands] == [
        ["audit3", "0"], ["audit3", "0"], ["audit4", "0"], ["audit3", "0"], ["audit3", "0"]
    ]
    assert all(re.fullmatch(r"[0-9a-f]{64}", line.split()[2]) for line in commands)
    assert re.fullmatch(r"total 5 [0-9a-f]{64}", total)
    # the inputs are seeded: another seed gives other commands
    assert digests.digest_lines("audit", 4, n_cycles=1)[-1] != total


def test_cli_digests_do_not_name_the_input_directory():
    # forms3 commands read files and print their paths: each run writes
    # them in a new temporary directory
    digests = _load("cli_digests")
    first = digests.digest_lines("forms3", 3, n_cycles=1)
    assert first == digests.digest_lines("forms3", 3, n_cycles=1)
    assert len(first) == 11


def test_cli_digests_repeat_on_one_roof_cycle():
    # the k2 commands run the search, whose draws come from each restart's
    # own seeded stream
    digests = _load("cli_digests")
    first = digests.digest_lines("roof", 3, n_cycles=1)
    assert first == digests.digest_lines("roof", 3, n_cycles=1)
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
    digests = _load("cli_digests")
    first = digests.digest_lines("analyze_wide", 3, n_cycles=1)
    assert first == digests.digest_lines("analyze_wide", 3, n_cycles=1)
    commands, total = first[:-1], first[-1]
    classes = {line.split()[0] for line in commands}
    assert classes == {"allfoci5", "pure7", "pure8", "pure9", "mixed6", "mixed7", "mixed8"}
    assert all(line.split()[1].isdigit() for line in commands)
    assert re.fullmatch(rf"total {len(commands)} [0-9a-f]{{64}}", total)
