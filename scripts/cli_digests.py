"""Byte digests of every command of a benchmark workload.

    python scripts/cli_digests.py WORKLOAD SEED

Builds the perfbench manifest of WORKLOAD at SEED (perfbench/workloads.py)
in a temporary directory, runs each command of its cycles in process through
the CLI, and prints one line per command: its class, its exit code (or the
name of the exception that escaped the CLI) and the sha256 of its argv and
stdout, with the input directory written as "<in>" in both.  The last line
is the sha256 of all the command lines.  Two trees that print the same lines
gave the same bytes on every command.  perfbench/ is only read: no bytecode
is written there.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from ktangle import cli  # noqa: E402


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


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    for line in digest_lines(argv[0], int(argv[1])):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
