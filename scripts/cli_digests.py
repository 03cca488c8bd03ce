"""Byte digests of every command of a benchmark workload.

    python scripts/cli_digests.py WORKLOAD SEED
    python scripts/cli_digests.py --golden WORKLOAD > tests/golden/WORKLOAD.txt

Builds the perfbench manifest of WORKLOAD at SEED (perfbench/workloads.py)
in a temporary directory, runs each command of its cycles in process through
the CLI, and prints one line per command: its class, its exit code (or the
name of the exception that escaped the CLI) and the sha256 of its argv and
stdout, with the input directory written as "<in>" in both.  The last line
is the sha256 of all the command lines.  Two trees that print the same lines
gave the same bytes on every command.  perfbench/ is only read: no bytecode
is written there.

With --golden it prints the lines of the first cycle at each of
GOLDEN_SEEDS, each seed under a "# seed" line, after two lines that name the
build: numpy's version and the configuration string of its bundled
OpenBLAS.  tests/golden/ holds one such file per workload; the tier-1 tests
compare them with the tree's bytes on that build.  A change that moves
printed bytes rewrites them in the same diff.
"""

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from ktangle import cli  # noqa: E402

GOLDEN_SEEDS = (7, 8)


def _manifest(workload: str, seed: int, indir: str) -> dict:
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        from workloads import build_manifest
    finally:
        sys.dont_write_bytecode = writes
    return build_manifest(workload, seed, indir)


def _run(argv: list) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a traceback out of the CLI is recorded, not raised
            code = type(exc).__name__
    return code, out.getvalue()


def digest_lines(workload: str, seed: int, n_cycles: int = None) -> list:
    """The command lines and the total of the first n_cycles cycles (all by
    default) of the workload's manifest at seed."""
    lines = []
    with tempfile.TemporaryDirectory() as indir:
        manifest = _manifest(workload, seed, indir)
        for cycle in manifest["cycles"][:n_cycles]:
            for cmd in cycle:
                code, out = _run(cmd["argv"])
                # the input paths, in argv and in the documents, name indir
                text = json.dumps([cmd["argv"], out]).replace(json.dumps(indir)[1:-1], "<in>")
                sha = hashlib.sha256(text.encode()).hexdigest()
                lines.append(f"{cmd['cls']} {code} {sha}")
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return lines + [f"total {len(lines)} {total}"]


def _blas_config() -> str:
    """The get_config string of the OpenBLAS that numpy bundles (the
    library cli._openblas sets the thread count of), or "none"."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(pattern)):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", "")):
            get = getattr(lib, f"{prefix}get_config{suffix}", None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_char_p
                return get().decode()
    return "none"


def build_lines() -> list:
    """The header lines that name the build printed bytes depend on."""
    return [f"# numpy {np.__version__}", f"# blas {_blas_config()}"]


def golden_lines(workload: str) -> list:
    """The golden file of the workload: build_lines, then the first cycle's
    digest lines at each of GOLDEN_SEEDS."""
    lines = build_lines()
    for seed in GOLDEN_SEEDS:
        lines += [f"# seed {seed}", *digest_lines(workload, seed, n_cycles=1)]
    return lines


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    lines = golden_lines(argv[1]) if argv[0] == "--golden" else digest_lines(argv[0], int(argv[1]))
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
