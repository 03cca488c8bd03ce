"""Benchmark worker: one fresh process that drives ``ktangle.cli.main`` in a closed loop.

Started by run.py, never by hand.  The worker imports the CLI from ``src``,
runs the workload's warm-up command and prints ``ready``; the time until
that line is the set-up time.  A probe stops there.  Otherwise the worker
runs the manifest's commands one at a time with stdout captured, checks
each output against its reference outside the timed region, and prints
one JSON line with the raw per-command records.  In a measuring run of a
scaled workload, a calibration kernel is timed between commands (see
Calibration).

Modes:
  probe  set-up only
  run    whole cycles until --seconds of command time and the minimum
         command count are both reached
  trace  each command of the first trace_cycles cycles twice, untraced and
         traced back to back; the per-layer metrics come from the traced
         runs, and their time over that of the untraced runs, minus one, is
         the tracing overhead
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import io
import json
import os
import sys
import time


class Calibration:
    """A fixed kernel, independent of ktangle, timed between commands.

    The host's speed drifts by tens of percent over tens of seconds, and the
    program's command times drift with it.  The kernel does the same kinds
    of work as the program: small dense eigensolves, JSON parsing, array
    building from Python lists, and a 32x32 SVD.  Its matrices are too small
    for OpenBLAS to thread, so a change to the program's threading leaves it
    alone.  run.py divides the metrics by the kernel's median time.

    The kernel runs once per EVERY_S of command time, after an idle PAUSE_S:
    OpenBLAS helper threads keep spinning for a few tens of milliseconds
    after a large threaded call, and a kernel run inside that window reads
    about 20 % slow.
    """

    EVERY_S = 0.25
    PAUSE_S = 0.05

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        self.a = a + a.conj().T
        self.b = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        cells = [{"re": float(x), "im": float(-x)} for x in rng.standard_normal(64)]
        self.doc = json.dumps({"dims": [2] * 6, "amplitudes": cells})
        self.np = np
        self.ms = []
        self.due_s = 0.0  # command time left until the next kernel run

    def between(self, command_s: float):
        """Account for a finished command; run the kernel when one is due."""
        self.due_s -= command_s
        if self.due_s <= 0.0:
            self.due_s = self.EVERY_S
            self.run()

    def run(self):
        np = self.np
        time.sleep(self.PAUSE_S)
        t0 = time.perf_counter()
        for _ in range(40):
            np.linalg.eigvalsh(self.a)
            nodes = json.loads(self.doc)["amplitudes"]
            np.array([complex(z["re"], z["im"]) for z in nodes])
            np.abs(self.a - self.a.conj().T).max()
        np.linalg.svd(self.b, compute_uv=False)
        self.ms.append((time.perf_counter() - t0) * 1e3)


def _timed(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a traceback out of the CLI is a failed command
            rc = exc
        dt = time.perf_counter() - t0
    return dt, rc, out.getvalue()


def _judge(cmd, rc, out, extra):
    """(status, items, note): status is ok, known (the documented defect) or wrong."""
    from checks import CheckError, check_output

    if isinstance(rc, Exception):
        if cmd.get("known_failure") == type(rc).__name__:
            return "known", 0, None
        return "wrong", 0, f"{' '.join(cmd['argv'])}: raised {rc!r}"
    try:
        return "ok", check_output(cmd["kind"], rc, out, cmd["ref"], extra), None
    except (CheckError, ValueError, KeyError, TypeError, IndexError) as exc:
        return "wrong", 0, f"{' '.join(cmd['argv'])}: {exc}"


def _execute(cli, cmd, extra, tracer=None):
    if tracer is not None:
        tracer.active(True)
    dt, rc, out = _timed(cli, cmd["argv"])
    if tracer is not None:
        tracer.active(False)
    status, items, note = _judge(cmd, rc, out, extra)
    data = out.encode()
    return {
        "cls": cmd["cls"],
        "argv": " ".join(cmd["argv"]),
        "ms": dt * 1e3,
        "items": items,
        "status": status,
        "exit": rc if isinstance(rc, int) else type(rc).__name__,
        "bytes": len(data),
        "sha256": hashlib.sha256(data).hexdigest(),
        "note": note,
    }


def _summary(recs, extra) -> dict:
    return {
        "recs": recs,
        "busy_s": sum(r["ms"] for r in recs) / 1e3,
        "notes": [r["note"] for r in recs if r["note"]][:5],
        "gap_max": extra.get("gap", 0.0),
    }


def run_pass(cli, cycles, seconds: float, min_commands: int, cal=None) -> dict:
    """Whole cycles until both the command time and the command count are reached."""
    recs, extra = [], {}
    busy, c = 0.0, 0
    while busy < seconds or len(recs) < min_commands:
        for cmd in cycles[c % len(cycles)]:
            recs.append(_execute(cli, cmd, extra))
            busy += recs[-1]["ms"] / 1e3
            if cal is not None:
                cal.between(recs[-1]["ms"] / 1e3)
        c += 1
    return {**_summary(recs, extra), "cycles": c, "calibration_ms": cal.ms if cal else []}


def run_paired(cli, cycles, n_cycles: int, tracer) -> tuple:
    """Each command of the first n_cycles untraced and traced back to back.

    The order alternates from one command to the next, so slow spells of a
    shared machine and warm caches fall on both sides alike.
    """
    plain, traced, extra_plain, extra = [], [], {}, {}
    for i, cmd in enumerate(cmd for cycle in cycles[:n_cycles] for cmd in cycle):
        tracer.cmd = i
        if i % 2:
            traced.append(_execute(cli, cmd, extra, tracer))
        plain.append(_execute(cli, cmd, extra_plain))
        if not i % 2:
            traced.append(_execute(cli, cmd, extra, tracer))
    return _summary(plain, extra_plain), {**_summary(traced, extra), "cycles": n_cycles}


def blas_threads():
    """OpenBLAS thread count of numpy's bundled library, or None if not found."""
    import ctypes

    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            getter = getattr(lib, fn, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("probe", "run", "trace"), required=True)
    ap.add_argument("--warmup", required=True, help="JSON list: argv of the warm-up command")
    ap.add_argument("--manifest")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--out", help="path prefix for the digest and span files")
    args = ap.parse_args()

    sys.path.insert(0, os.path.abspath("src"))
    from ktangle import cli

    _timed(cli, json.loads(args.warmup))
    print("ready", flush=True)
    # The kernel's time right after set-up scales this worker's set-up time.
    setup_cal = Calibration()
    for _ in range(3):
        setup_cal.run()
    if args.mode == "probe":
        print(json.dumps({"setup_calibration_ms": setup_cal.ms}), flush=True)
        return 0

    with open(args.manifest) as fh:
        manifest = json.load(fh)
    cycles = manifest["cycles"]
    result = {"blas_threads": blas_threads(), "setup_calibration_ms": setup_cal.ms}
    if args.mode == "run":
        cal = Calibration() if manifest["scaled"] else None
        result.update(run_pass(cli, cycles, args.seconds, manifest["min_commands"], cal))
    else:
        from tracer import Tracer, layer_metrics, self_share_by_class

        tr = Tracer()
        tr.install()
        plain, res = run_paired(cli, cycles, manifest["trace_cycles"], tr)
        result.update(res)
        recs = res["recs"]
        result["digests_match"] = [r["sha256"] for r in plain["recs"]] == [r["sha256"] for r in recs]
        overhead = res["busy_s"] / plain["busy_s"] - 1.0
        result["untraced_busy_s"] = plain["busy_s"]
        result["metrics"] = layer_metrics(
            tr.spans, tr.counts, sum(r["bytes"] for r in recs), res["gap_max"], overhead
        )
        result["shares"] = self_share_by_class(tr.spans, [r["cls"] for r in recs])
        tr.dump(args.out + "-spans.jsonl")
    with open(args.out + "-digests.json", "w") as fh:
        json.dump([[r["cls"], r["argv"], r["exit"], r["sha256"]] for r in result["recs"]], fh, indent=0)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
