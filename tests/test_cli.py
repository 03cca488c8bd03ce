import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import ktangle as kt
from ktangle import cli, ghzw
from ktangle.cli import main
from ktangle.config import EPS_NORM

from conftest import L3, amplitudes_json, mixed_state, real_pure


def _ghz_doc():
    r = 1 / math.sqrt(2)
    v = np.zeros(8, dtype=complex)
    v[0] = v[7] = r
    return {"dims": [2, 2, 2], "amplitudes": amplitudes_json(v)}


def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_analyze_ghz(write_state, capsys):
    path = write_state("ghz.json", _ghz_doc())
    rc, out, err = _run(capsys, ["analyze", path])
    assert rc == 0
    doc = json.loads(out)
    assert doc["command"] == "analyze"
    assert doc["input"]["kind"] == "pure"
    assert len(doc["input"]["sha256"]) == 64
    assert len(doc["reports"]) == 3
    rep = doc["reports"][0]
    assert rep["negativity"]["focus"] == "A"
    assert abs(rep["negativity"]["n_global"] - 1.0) < 1e-9
    assert abs(rep["negativity"]["e_partial"]["3"] - 1.0) < 1e-9
    assert abs(rep["negativity"]["e_partial"]["2"]) < 1e-9
    assert abs(rep["tangle"]["tau3"] - 1.0) < 1e-9
    assert abs(rep["delta"]) < 1e-9
    assert rep["negativity"]["violations"] == []


def test_analyze_focus_and_canonical(write_state, capsys):
    path = write_state("ghz.json", _ghz_doc())
    rc, out, _ = _run(capsys, ["analyze", path, "--focus", "B", "--canonical"])
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["reports"]) == 1
    assert doc["reports"][0]["negativity"]["focus"] == "B"
    form = doc["canonical"]["forms"][0]
    assert abs(form["a"] - 1 / math.sqrt(2)) < 1e-9
    assert abs(form["f"] - 1 / math.sqrt(2)) < 1e-9
    assert doc["canonical"]["residual"] <= 1e-12


def _haar_doc(n, seed):
    psi = kt.haar_random_pure(kt.qubit_layout(n), seed)
    return {"dims": [2] * n, "amplitudes": amplitudes_json(psi.amplitudes)}


@pytest.mark.parametrize(
    "flags, calls",
    [([], 3), (["--focus", "A", "--canonical"], 1), (["--focus", "A"], 1), (["--focus", "C"], 2)],
)
def test_three_qubit_analyze_runs_one_schmidt_step_per_focus(
    write_state, capsys, monkeypatch, flags, calls
):
    # each focus report's N_G feeds its CKW split and, at focus A, delta;
    # only a report without focus A computes delta apart (coherence_delta)
    from ktangle import negativity

    foci = []

    def counted(amps, dims, p, _schmidt=negativity._schmidt):
        foci.append(p)
        return _schmidt(amps, dims, p)

    sites = [m for name, m in sorted(sys.modules.items())
             if name.startswith("ktangle.") and getattr(m, "_schmidt", None) is negativity._schmidt]
    assert {m.__name__ for m in sites} >= {"ktangle.negativity", "ktangle.tangle", "ktangle.roof"}
    for m in sites:
        monkeypatch.setattr(m, "_schmidt", counted)
    path = write_state("haar3.json", _haar_doc(3, 17))
    rc, out, _ = _run(capsys, ["analyze", path, *flags])
    assert rc in (0, 3) and json.loads(out)["reports"]
    assert len(foci) == calls, foci


@pytest.mark.parametrize("seed", [17, 18])
def test_three_qubit_analyze_prints_the_public_tangles_and_delta(write_state, capsys, seed):
    # the report path reuses each report's N_G; the public functions take
    # their own Schmidt step, and the printed values agree bit for bit
    doc = _haar_doc(3, seed)
    psi = kt.PureState(L3, np.array([complex(c["re"], c["im"]) for c in doc["amplitudes"]]))
    path = write_state("haar3.json", doc)
    delta = cli._sig12(kt.coherence_delta(psi))
    for flags in ([], ["--focus", "B"]):
        rc, out, _ = _run(capsys, ["analyze", path, *flags])
        assert rc in (0, 3)
        for rep in json.loads(out)["reports"]:
            p = "ABC".index(rep["negativity"]["focus"])
            assert rep["tangle"] == cli._tangle_block(kt.three_tangle(psi, p))
            assert rep["delta"] == delta


def test_analyze_all_foci_five_qubits(write_state, capsys):
    path = write_state("q5.json", _haar_doc(5, 11))
    rc, out, _ = _run(capsys, ["analyze", path])
    assert rc in (0, 3)
    doc = json.loads(out)
    assert [r["negativity"]["focus"] for r in doc["reports"]] == list("ABCDE")


def test_analyze_focus_beyond_c(write_state, capsys):
    path = write_state("q4.json", _haar_doc(4, 12))
    rc, out, _ = _run(capsys, ["analyze", path, "--focus", "D"])
    assert rc in (0, 3)
    doc = json.loads(out)
    assert [r["negativity"]["focus"] for r in doc["reports"]] == ["D"]

    path = write_state("ghz.json", _ghz_doc())
    rc, out, err = _run(capsys, ["analyze", path, "--focus", "E"])
    assert rc == 1
    assert out == ""
    assert "focus E out of range" in err


def test_analyze_bad_norm_message(write_state, capsys):
    v = np.zeros(8, dtype=complex)
    v[0] = 0.9
    path = write_state("bad.json", {"dims": [2, 2, 2], "amplitudes": amplitudes_json(v)})
    rc, out, err = _run(capsys, ["analyze", path])
    assert rc == 1
    assert out == ""
    assert "norm" in err and "0.9" in err


_ROOF_PURE = ["--focus", "A", "--measure", "global", "--restarts", "1"]


@pytest.mark.parametrize(
    "command", [["analyze"], ["canonicalize"], ["roof"] + _ROOF_PURE], ids=lambda c: c[0]
)
@pytest.mark.parametrize("norm_error, rejected", [(7e-10, True), (4e-10, False)])
def test_pure_norm_is_checked_squared_at_the_parser(
    write_state, capsys, command, norm_error, rejected
):
    # |norm^2 - 1| is the quantity that the trace of |psi><psi| and the
    # canonical amplitude sum carry, so a file the parser accepts passes
    # every later stage and one it would fail on is rejected up front
    v = real_pure(kt.qubit_layout(3), np.random.default_rng(4)).amplitudes * (1.0 + norm_error)
    path = write_state("near.json", {"dims": [2, 2, 2], "amplitudes": amplitudes_json(v)})
    rc, out, err = _run(capsys, [command[0], path] + command[1:])
    if rejected:
        assert (rc, out) == (1, "")
        assert err.startswith("validation error: state norm")
    else:
        assert rc == 0, err
        assert json.loads(out)["input"]["kind"] == "pure"


def test_analyze_matrix_within_the_hermiticity_bound(write_state, capsys):
    # a 1e-12 defect passes the parser (eps_herm = 1e-10), which keeps the
    # Hermitian part, so every transpose the report takes is Hermitian
    m = mixed_state(kt.qubit_layout(3), np.random.default_rng(8), real=True).matrix.copy()
    m[1, 2] += 1e-12
    doc_in = {"dims": [2, 2, 2], "matrix": [amplitudes_json(row) for row in m]}
    rc, out, err = _run(capsys, ["analyze", write_state("defect.json", doc_in)])
    assert rc == 0, err
    assert [r["negativity"]["focus"] for r in json.loads(out)["reports"]] == ["A", "B", "C"]


def test_analyze_nan_entry_is_a_parse_error(write_state, capsys):
    doc = _ghz_doc()
    doc["amplitudes"][3]["re"] = float("nan")
    rc, out, err = _run(capsys, ["analyze", write_state("nan.json", doc)])
    assert rc == 1
    assert out == ""
    assert err.startswith("parse error:") and "amplitudes[3]" in err


def test_analyze_density_input(write_state, capsys):
    # classical two-qubit mixture: all negativities vanish
    m = np.diag([0.5, 0.5, 0.0, 0.0])
    doc_in = {
        "dims": [2, 2],
        "matrix": [[{"re": float(x.real), "im": 0.0} for x in row] for row in m],
    }
    path = write_state("diag.json", doc_in)
    rc, out, _ = _run(capsys, ["analyze", path])
    assert rc == 0
    doc = json.loads(out)
    assert doc["input"]["kind"] == "density"
    for rep in doc["reports"]:
        assert abs(rep["negativity"]["n_global"]) < 1e-12
        assert "tangle" not in rep


def test_analyze_ensemble_input(write_state, capsys):
    v0 = np.zeros(4)
    v0[0] = 1.0
    v1 = np.zeros(4)
    v1[3] = 1.0
    doc_in = {
        "dims": [2, 2],
        "ensemble": [
            {"p": 0.5, "amplitudes": amplitudes_json(v0)},
            {"p": 0.5, "amplitudes": amplitudes_json(v1)},
        ],
    }
    path = write_state("ens.json", doc_in)
    rc, out, _ = _run(capsys, ["analyze", path])
    assert rc == 0
    doc = json.loads(out)
    assert doc["input"]["kind"] == "ensemble"
    assert abs(doc["reports"][0]["negativity"]["n_global"]) < 1e-12


def test_analyze_canonical_requires_pure3(write_state, capsys):
    m = np.diag([0.5, 0.5, 0.0, 0.0])
    doc_in = {
        "dims": [2, 2],
        "matrix": [[{"re": float(x.real), "im": 0.0} for x in row] for row in m],
    }
    path = write_state("diag.json", doc_in)
    rc, out, err = _run(capsys, ["analyze", path, "--canonical"])
    assert rc == 1
    assert "three-qubit pure" in err


def test_analyze_complex_state_exits_3_with_report(write_state, capsys):
    # complex coherences break the sum rule; the document must still be
    # printed in full before the nonzero exit
    rng = np.random.default_rng(13)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    v /= np.linalg.norm(v)
    path = write_state("cplx.json", {"dims": [2, 2, 2], "amplitudes": amplitudes_json(v)})
    rc, out, err = _run(capsys, ["analyze", path])
    assert rc == 3
    doc = json.loads(out)  # valid JSON despite the failure exit
    assert doc["command"] == "analyze"
    assert "residual" in err


def test_canonicalize_command(write_state, capsys):
    path = write_state("ghz.json", _ghz_doc())
    rc, out, _ = _run(capsys, ["canonicalize", path])
    assert rc == 0
    doc = json.loads(out)
    assert doc["command"] == "canonicalize"
    assert len(doc["forms"]) >= 1
    assert len(doc["unitaries"]) == len(doc["forms"])
    u = doc["unitaries"][0][0]
    assert u["target"] == 0
    assert len(u["matrix"]) == 2 and len(u["matrix"][0]) == 2
    assert set(u["matrix"][0][0]) == {"re", "im"}


def test_canonicalize_exits_2_on_a_residual_above_its_bound(write_state, capsys, monkeypatch):
    from ktangle import canonical

    psi = kt.haar_random_pure(L3, 5)
    residual = kt.canonicalize3(psi).residual
    assert residual > 0.0
    monkeypatch.setattr(canonical, "CANONICAL_RESIDUAL", residual / 2.0)
    doc_in = {"dims": [2, 2, 2], "amplitudes": amplitudes_json(psi.amplitudes)}
    path = write_state("haar.json", doc_in)
    rc, out, err = _run(capsys, ["canonicalize", path])
    assert rc == 2 and out == ""
    assert err.startswith("numerical failure: canonicalization residual")


def test_canonicalize_rejects_density(write_state, capsys):
    m = np.eye(8) / 8.0
    doc_in = {
        "dims": [2, 2, 2],
        "matrix": [[{"re": float(x.real), "im": 0.0} for x in row] for row in m],
    }
    path = write_state("mixed.json", doc_in)
    rc, _, err = _run(capsys, ["canonicalize", path])
    assert rc == 1
    assert "pure" in err


def test_sweep_csv_schema(capsys):
    rc, out, _ = _run(capsys, ["sweep", "--family", "ghzw", "--sign", "minus", "--q", "0:1:11"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q,n_global,e2,e3,tau3_formula,e3_times_ng,delta"
    assert len(lines) == 12
    first = lines[1].split(",")
    last = lines[-1].split(",")
    assert float(first[0]) == 0.0
    assert float(last[0]) == 1.0
    assert abs(float(last[1]) - 1.0) < 1e-9   # n_global -> GHZ
    assert abs(float(last[4]) - 1.0) < 1e-9   # tau3 closed form


@pytest.mark.parametrize("sign", ["minus", "plus"])
def test_sweep_csv_prints_no_negative_zero(capsys, sign):
    # delta is -0.0 at q = 0 on both branches; the JSON documents print
    # such a value as 0, and so does the CSV
    rc, out, _ = _run(capsys, ["sweep", "--family", "ghzw", "--sign", sign, "--q", "0:1:101"])
    assert rc == 0
    rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
    assert rows[0] == ["0", "0.942809041582", "0.942809041582", "0", "0", "0", "0"]
    assert not any(cell == "-0" for row in rows for cell in row)


def test_sweep_tangle_zero_visible(capsys):
    rc, out, _ = _run(capsys, ["sweep", "--family", "ghzw", "--sign", "minus", "--q", "0:1:101"])
    assert rc == 0
    rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
    # the interior tangle dip sits at the right grid point (tau3 is also
    # zero at the q=0 endpoint, which is not the feature of interest)
    interior = [r for r in rows if 0.1 <= float(r[0]) <= 0.9]
    low = min(interior, key=lambda r: float(r[4]))
    assert abs(float(low[0]) - 0.6268510) < 0.01
    assert float(low[4]) < 0.01
    # a finer grid straddling the zero resolves it to the grid spacing
    rc, out, _ = _run(
        capsys, ["sweep", "--family", "ghzw", "--sign", "minus", "--q", "0.6268:0.6269:11"]
    )
    rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
    low = min(rows, key=lambda r: float(r[4]))
    assert abs(float(low[0]) - 0.6268510) < 2e-5
    assert float(low[4]) < 1e-4
    # a grid starting 1e-12 above the zero, where the reducer returns one
    # merged form for two closed-form roots that are still apart
    rc, out, err = _run(
        capsys, ["sweep", "--family", "ghzw", "--sign", "minus", "--q", "0.626851014851:0.7:3"]
    )
    assert rc == 0, err
    assert len(out.strip().splitlines()) == 4


def test_sweep_grid_validation(capsys):
    rc, _, err = _run(capsys, ["sweep", "--family", "ghzw", "--sign", "minus", "--q", "0:1"])
    assert rc == 1
    assert "start:end:steps" in err
    rc, _, err = _run(capsys, ["sweep", "--family", "ghzw", "--sign", "minus", "--q", "a:b:5"])
    assert rc == 1
    # range and step errors raise at the sweep_family call, before the header
    for grid in ("0.5:0.4:10", "0:1:1"):
        rc, out, err = _run(capsys, ["sweep", "--family", "ghzw", "--sign", "minus", "--q", grid])
        assert rc == 1 and out == ""
        assert "validation error" in err


class _Sink:
    """A stdout that discards what it receives."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


def _sweep_peak(grid):
    with contextlib.redirect_stdout(_Sink()):
        tracemalloc.start()
        try:
            assert main(["sweep", "--family", "ghzw", "--sign", "minus", "--q", grid]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_sweep_memory_does_not_grow_with_the_grid():
    # the rows are printed as they are made, so ten times the grid points
    # keep the traced peak within 0.25 MB; a list of every row would add ~0.85 MB
    _sweep_peak("0:1:300")  # fills the module caches
    small, large = _sweep_peak("0:1:300"), _sweep_peak("0:1:3000")
    assert large - small <= 0.25 * 2**20, (small, large)


def test_the_e0_gate_keeps_a_valid_haar_state_out_of_the_audit(capsys):
    # The 1685th 3-qubit haar_random_pure draw of default_rng(42) has
    # E_2 > N_G.  Its |e0| > EPS_NORM is all that keeps it out of
    # violations: an audit without the e0 gate counts this valid state.
    rng = np.random.default_rng(42)
    for _ in range(1685):
        psi = kt.haar_random_pure(L3, rng)
    rep = kt.negativity_report(psi, 0)
    assert rep.n_global == pytest.approx(0.749641, abs=1e-6)
    assert rep.e_partial[2] == pytest.approx(0.751050, abs=1e-6)
    assert rep.e_partial[3] == pytest.approx(-0.081428, abs=1e-6)
    assert rep.e0 == pytest.approx(-0.082614, abs=1e-6)
    assert rep.e_partial[2] > rep.n_global + EPS_NORM and abs(rep.e0) > EPS_NORM
    assert rep.violations == []
    rc, out, _ = _run(capsys, ["audit", "--random", "1685", "--seed", "42"])
    assert rc == 0
    assert out.splitlines()[1] == "1685,3,42,0,0,0"


def test_roof_command(write_state, capsys):
    v0 = np.zeros(4)
    v0[0] = 1.0
    v1 = np.zeros(4)
    v1[3] = 1.0
    doc_in = {
        "dims": [2, 2],
        "ensemble": [
            {"p": 0.5, "amplitudes": amplitudes_json(v0)},
            {"p": 0.5, "amplitudes": amplitudes_json(v1)},
        ],
    }
    path = write_state("sep.json", doc_in)
    rc, out, _ = _run(
        capsys, ["roof", path, "--focus", "A", "--measure", "global", "--restarts", "4"]
    )
    assert rc == 0
    doc = json.loads(out)
    res = doc["result"]
    # a two-qubit global roof is Wootters' exact decomposition: no search runs
    assert res["bound"] == "exact"
    assert res["value"] == 0.0
    assert res["restarts_used"] == 0
    assert res["converged"] is True
    assert doc["seeds"] == {"roof": 0}
    probs = [m["p"] for m in res["certificate"]["members"]]
    assert abs(sum(probs) - 1.0) < 1e-9


def test_roof_global_on_a_two_qubit_matrix_file(write_state, capsys):
    # a matrix file is the density operator itself; the Werner state
    # p |Bell><Bell| + (1 - p) 1/4 has the concurrence (3p - 1)/2
    p = 0.7
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    m = p * np.outer(bell, bell) + (1.0 - p) * np.eye(4) / 4.0
    path = write_state("werner.json", {"dims": [2, 2], "matrix": [amplitudes_json(r) for r in m]})
    rc, out, _ = _run(capsys, ["roof", path, "--focus", "A", "--measure", "global"])
    assert rc == 0
    res = json.loads(out)["result"]
    assert res["bound"] == "exact"
    tau = kt.wootters_tangle(kt.DensityOperator(kt.qubit_layout(2), m))
    assert res["value"] == float(f"{math.sqrt(tau):.12g}")
    assert abs(res["value"] - (3.0 * p - 1.0) / 2.0) <= 1e-12


def test_roof_measure_choices(write_state, capsys):
    path = write_state("ghz.json", _ghz_doc())
    rc, _, err = _run(capsys, ["roof", path, "--focus", "A", "--measure", "spectral"])
    assert rc == 1
    assert "measure" in err


def test_audit_csv(capsys):
    rc, out, _ = _run(capsys, ["audit", "--random", "50", "--seed", "7"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "states,qubits,seed,viol_ng_e2,viol_ng_e3,viol_ckw"
    fields = lines[1].split(",")
    assert fields == ["50", "3", "7", "0", "0", "0"]


def test_audit_four_qubits(capsys):
    rc, out, _ = _run(capsys, ["audit", "--random", "10", "--seed", "1", "--qubits", "4"])
    assert rc == 0
    fields = out.strip().splitlines()[1].split(",")
    assert fields[:3] == ["10", "4", "1"]
    assert fields[3:] == ["0", "0", "0"]


def test_usage_errors(capsys):
    rc, _, err = _run(capsys, ["analyze"])  # missing file
    assert rc == 1
    assert "usage error" in err
    rc, _, err = _run(capsys, ["sweep", "--family", "ghzw", "--sign", "sideways", "--q", "0:1:3"])
    assert rc == 1


def test_missing_file(capsys):
    rc, _, err = _run(capsys, ["analyze", "/nonexistent/state.json"])
    assert rc == 1
    assert "input error" in err


def test_parse_errors(write_state, capsys):
    path = write_state("broken.json", {})
    # overwrite with malformed bytes
    with open(path, "w") as fh:
        fh.write("{not json")
    rc, _, err = _run(capsys, ["analyze", path])
    assert rc == 1
    assert "parse error" in err

    path = write_state("nodims.json", {"amplitudes": amplitudes_json(np.ones(4) / 2.0)})
    rc, _, err = _run(capsys, ["analyze", path])
    assert rc == 1

    v = np.ones(4) / 2.0
    path = write_state(
        "two.json",
        {
            "dims": [2, 2],
            "amplitudes": amplitudes_json(v),
            "matrix": [[{"re": 0.25, "im": 0.0}] * 4] * 4,
        },
    )
    rc, _, err = _run(capsys, ["analyze", path])
    assert rc == 1

    path = write_state(
        "badnum.json", {"dims": [2, 2], "amplitudes": [{"re": 0.5}] * 4}
    )
    rc, _, err = _run(capsys, ["analyze", path])
    assert rc == 1
    assert "parse error" in err


def _run_subprocess(argv, **env):
    # the child imports the same ktangle as this process, installed or not
    src = os.path.dirname(os.path.dirname(kt.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "ktangle", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path, **env},
    )


def test_roof_demo_script():
    # the script runs, prints the same bytes twice, and each printed squared
    # pair roof equals the printed Wootters tangle in every digit
    script = os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts", "roof_demo.py")
    src = os.path.dirname(os.path.dirname(kt.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    runs = [subprocess.run([sys.executable, script], capture_output=True, text=True, env=env)
            for _ in range(2)]
    assert [r.returncode for r in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout
    pairs = [line.split() for line in runs[0].stdout.splitlines() if "roof^2 =" in line]
    assert len(pairs) == 2
    for words in pairs:
        assert words[2] == words[-1]  # "roof^2 = X vs wootters tangle X"
    assert runs[0].stdout.count(" (exact)\n") == 2  # the exact route ran
    assert runs[0].stdout.endswith("residual three tangle = 0.00e+00\n")  # at the closed-form q*


@pytest.mark.parametrize("n_qubits, measure", [(2, "global"), (3, "k2")])
def test_roof_rejects_a_negative_seed_on_every_route(write_state, capsys, n_qubits, measure):
    # the two-qubit global roof is exact and never reads the seed; the
    # three-qubit k2 roof runs the search: both reject the seed up front
    layout = kt.qubit_layout(n_qubits)
    rng = np.random.default_rng(3)
    amps = [amplitudes_json(real_pure(layout, rng).amplitudes) for _ in range(2)]
    members = [{"p": 0.5, "amplitudes": a} for a in amps]
    path = write_state("rank2.json", {"dims": list(layout.dims), "ensemble": members})
    argv = ["roof", path, "--focus", "A", "--measure", measure, "--seed", "-3"]
    rc, out, err = _run(capsys, argv)
    assert (rc, out) == (1, "")
    assert err.startswith("validation error: roof seed -3")


def test_audit_rejects_a_negative_seed(capsys):
    rc, out, err = _run(capsys, ["audit", "--random", "5", "--seed", "-3"])
    assert (rc, out) == (1, "")
    assert err.startswith("validation error: audit seed -3")


def test_audit_rejects_zero_states(capsys):
    rc, out, err = _run(capsys, ["audit", "--random", "0"])
    assert (rc, out) == (1, "")
    assert err.startswith("validation error: audit needs --random >= 1")


def test_numerical_failure_exits_2_after_the_rows_already_printed(capsys, monkeypatch):
    # a sweep prints each row as it makes it, so a numerical failure at grid
    # point k + 1 leaves the header and the first k rows on stdout
    argv = ["sweep", "--family", "ghzw", "--sign", "minus", "--q", "0.1:0.9:9"]
    rc, clean, _ = _run(capsys, argv)
    assert rc == 0
    k = 4
    check = ghzw._closed_form_root_check
    calls = []

    def fail_after_k(result, x):
        calls.append(x)
        if len(calls) > k:
            raise kt.NumericalError("seeded root-check failure")
        check(result, x)

    monkeypatch.setattr(ghzw, "_closed_form_root_check", fail_after_k)
    rc, out, err = _run(capsys, argv)
    assert rc == 2
    assert err.startswith("numerical failure: seeded root-check failure")
    assert out.splitlines() == clean.splitlines()[: 1 + k]


def test_module_entrypoint_and_determinism(tmp_path):
    doc_in = {
        "dims": [2, 2],
        "ensemble": [
            {"p": 0.6, "amplitudes": amplitudes_json(np.array([1.0, 0, 0, 0]))},
            {"p": 0.4, "amplitudes": amplitudes_json(np.array([0, 0, 0, 1.0]))},
        ],
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc_in))
    argv = ["roof", str(path), "--focus", "A", "--measure", "global", "--restarts", "3"]
    r1 = _run_subprocess(argv)
    r2 = _run_subprocess(argv)
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout  # byte determinism

    s1 = _run_subprocess(["sweep", "--family", "ghzw", "--sign", "plus", "--q", "0.2:0.8:5"])
    s2 = _run_subprocess(["sweep", "--family", "ghzw", "--sign", "plus", "--q", "0.2:0.8:5"])
    assert s1.returncode == 0 and s1.stdout == s2.stdout

    a1 = _run_subprocess(["audit", "--random", "20", "--seed", "3"])
    a2 = _run_subprocess(["audit", "--random", "20", "--seed", "3"])
    assert a1.returncode == 0 and a1.stdout == a2.stdout


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "ktangle" in out


def test_the_parser_built_once_behaves_as_a_fresh_one(monkeypatch, capsys):
    # usage errors, --version and different subcommands back to back
    argvs = [
        ["audit", "--random", "3", "--seed", "2"],
        ["analyze"],
        ["sweep", "--family", "ghzw", "--sign", "plus", "--q", "0.2:0.8:3"],
        ["audit", "--random", "2", "--qubits", "5"],
        ["--version"],
        ["bogus"],
        ["sweep", "--family", "ghzw", "--sign", "sideways", "--q", "0:1:3"],
        ["audit", "--random", "3", "--seed", "2", "--qubits", "4"],
        ["audit", "--random", "3"],
        [],
    ]

    def outcomes():
        got = []
        for argv in argvs:
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = ("exit", exc.code)
            captured = capsys.readouterr()
            got.append((rc, captured.out, captured.err))
        return got

    once = outcomes()
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = outcomes()
    assert once == fresh
    assert [rc for rc, _, _ in once] == [0, 1, 0, 1, ("exit", 0), 1, 1, 0, 0, 1]


def _negative_vectors_printed(out):
    doc = json.loads(out)
    return [
        np.array([complex(z["re"], z["im"]) for z in pair["vector"]])
        for pair in doc["reports"][0]["negativity"]["negative_eigenpairs"]
    ]


def test_printed_eigenvectors_take_one_gauge_on_both_routes(write_state, capsys):
    # the amplitude file takes the Schmidt route and the matrix file the eigh
    # route; neither fixes a phase, the printed gauge does
    layout = kt.qubit_layout(4)
    v = kt.haar_random_pure(layout, 11).amplitudes
    pure = write_state("pure.json", {"dims": [2] * 4, "amplitudes": amplitudes_json(v)})
    rows = [amplitudes_json(row) for row in np.outer(v, v.conj())]
    dense = write_state("dense.json", {"dims": [2] * 4, "matrix": rows})
    printed = []
    for path in (pure, dense):
        rc, out, _ = _run(capsys, ["analyze", path, "--focus", "A"])
        assert rc == 3  # complex coherences: the one-way term is reported
        printed.append(_negative_vectors_printed(out))
    assert len(printed[0]) == len(printed[1]) == 1
    for a, b in zip(*printed):
        assert np.abs(a - b).max() <= 1e-12
        top = int(np.argmax(np.abs(a)))
        assert a[top].imag == 0.0 and a[top].real > 0


def test_gauge_takes_the_first_largest_entry():
    vec = np.array([0.5j, -0.5, 0.5, -0.5j])
    assert np.array_equal(cli._gauged(vec), np.array([0.5, 0.5j, -0.5j, -0.5]))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(), kids, max_size=4),
    max_leaves=40,
)


@given(_JSON_VALUES)
def test_documents_print_as_json_dumps_with_indent_2(value):
    assert cli._dumps(value) == json.dumps(value, indent=2)


def test_document_printing_edge_cases():
    doc = {"empty": {}, "none": [], "nested": [[], {}, [{}]], "tuple": (1, 2.5),
           "floats": [-0.0, 5e-324, 1e308, float("nan"), float("inf"), float("-inf")],
           "ints": [0, -7, 10**30, True, False, None], "text": "\u00e9\"\n\\ <in>"}
    assert cli._dumps(doc) == json.dumps(doc, indent=2)
    for bad in ({"x": 1j}, [{1, 2}], {1: 0.5}):
        with pytest.raises(TypeError):
            cli._dumps(bad)


@pytest.mark.parametrize("n", [7, 9])
def test_pure_analyze_bytes_do_not_depend_on_blas_threads(tmp_path, n):
    v = kt.haar_random_pure(kt.qubit_layout(n), 100 + n).amplitudes
    path = tmp_path / f"pure{n}.json"
    path.write_text(json.dumps({"dims": [2] * n, "amplitudes": amplitudes_json(v)}))
    argv = ["analyze", str(path), "--focus", "A"]
    runs = [_run_subprocess(argv, OPENBLAS_NUM_THREADS=t) for t in ("1", "2")]
    assert [r.returncode for r in runs] == [3, 3]
    assert runs[0].stdout == runs[1].stdout


def test_density_and_roof_bytes_do_not_depend_on_blas_threads(tmp_path):
    # a full-rank 8-qubit density matrix takes the eigh route, whose
    # threaded reductions printed other digits at 2 threads before the CLI
    # ran each command on one thread
    rng = np.random.default_rng(1)
    Z = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    rho = Z @ Z.conj().T
    rho = rho / np.trace(rho).real
    dense = tmp_path / "full8.json"
    dense.write_text(json.dumps({"dims": [2] * 8, "matrix": [amplitudes_json(row) for row in rho]}))
    members = [{"p": 0.6, "amplitudes": amplitudes_json(kt.haar_random_pure(L3, 1).amplitudes)},
               {"p": 0.4, "amplitudes": amplitudes_json(kt.haar_random_pure(L3, 2).amplitudes)}]
    mix = tmp_path / "mix3.json"
    mix.write_text(json.dumps({"dims": [2, 2, 2], "ensemble": members}))
    for argv in (["analyze", str(dense), "--focus", "A"],
                 ["roof", str(mix), "--focus", "B", "--measure", "k2", "--restarts", "8"]):
        runs = [_run_subprocess(argv, OPENBLAS_NUM_THREADS=t) for t in ("1", "2")]
        assert runs[0].returncode in (0, 3) and runs[0].stdout.startswith("{"), runs[0].stderr
        assert runs[0].returncode == runs[1].returncode and runs[0].stdout == runs[1].stdout, argv


def test_each_command_runs_on_one_blas_thread_and_restores_the_callers(monkeypatch, capsys):
    blas = cli._openblas()
    if blas is None:
        pytest.skip("numpy has no bundled OpenBLAS to pin")
    get, put = blas
    before = get()
    inside = []

    def spy(*args, _sweep=cli.sweep_family):
        inside.append(get())
        return _sweep(*args)

    monkeypatch.setattr(cli, "sweep_family", spy)
    try:
        put(2)
        caller = get()  # 1 where the library was started with one thread
        assert cli.main(["sweep", "--family", "ghzw", "--sign", "plus", "--q", "0:1:3"]) == 0
        assert inside == [1] and get() == caller
        assert cli.main(["sweep", "--family", "ghzw"]) == 1  # a usage error restores it too
        assert get() == caller
    finally:
        put(before)
    capsys.readouterr()


_JUNK_ENTRIES = (
    None,
    "0.5",
    True,
    [],
    {"re": 0.5},
    {"re": "x", "im": 0.0},
    {"re": float("nan"), "im": 0.0},
    {"re": float("inf"), "im": 0.0},
    {"re": 1e308, "im": -1e308},
)


@st.composite
def _state_files(draw):
    """State-file text: a valid document of 2 to 6 qubits, then maybe one defect."""
    n = draw(st.integers(2, 6))
    layout = kt.qubit_layout(n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["amplitudes", "matrix", "ensemble"]))
    if kind == "amplitudes":
        payload = amplitudes_json(kt.haar_random_pure(layout, rng).amplitudes)
        entries = payload
    elif kind == "matrix":
        payload = [amplitudes_json(row) for row in mixed_state(layout, rng).matrix]
        entries = payload[int(rng.integers(len(payload)))]
    else:
        probs = rng.dirichlet(np.ones(draw(st.integers(1, 3))))
        members = [kt.haar_random_pure(layout, rng) for _ in probs]
        payload = [
            {"p": float(p), "amplitudes": amplitudes_json(psi.amplitudes)}
            for p, psi in zip(probs, members)
        ]
        entries = payload[0]["amplitudes"]
    doc = {"dims": [2] * n, kind: payload}

    defect = draw(
        st.sampled_from(
            ["none", "entry", "scale", "short", "dims", "second_payload", "prob", "text"]
        )
    )
    if defect == "entry":
        entries[int(rng.integers(len(entries)))] = draw(st.sampled_from(_JUNK_ENTRIES))
    elif defect == "scale":  # parses, but not normalized / not trace one
        k = int(rng.integers(len(entries)))
        entries[k] = {"re": entries[k]["re"] * 3.0 + 0.1, "im": entries[k]["im"]}
    elif defect == "short":
        del entries[-1]
    elif defect == "dims":
        doc["dims"] = draw(st.sampled_from([[2] * (n + 1), [1, 2], [], [2.0, 2], "2", [True, 2]]))
    elif defect == "second_payload":
        doc["amplitudes" if kind != "amplitudes" else "matrix"] = []
    elif defect == "prob":
        if kind == "ensemble":
            payload[0]["p"] = draw(st.sampled_from([-0.5, 0.0, 2.0, "1", float("nan")]))
        else:
            doc[kind] = {"p": 1.0}
    text = json.dumps(doc)
    if defect == "text":
        text = text[: int(rng.integers(len(text)))]
    return text


@given(
    _state_files(),
    st.sampled_from(["analyze", "canonicalize", "roof"]),
    st.sampled_from([None, "A", "B", "C", "D", "E", "F", "G"]),
)
def test_exit_code_contract_over_state_files(text, command, focus):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.json")
        with open(path, "w") as fh:
            fh.write(text)
        argv = [command, path]
        if command == "roof":
            # one restart keeps the search cheap on 6-qubit inputs
            argv += ["--focus", focus or "A", "--measure", "k2", "--restarts", "1"]
        elif command == "analyze" and focus is not None:
            argv += ["--focus", focus]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv)
    assert rc in (0, 1, 2, 3)


@st.composite
def _nested_state_files(draw):
    """State-file text (_state_files) with arrays or objects nested up to
    100 000 deep, as an extra key of the document or anywhere in the text."""
    text = draw(_state_files())
    depth = draw(st.sampled_from([1, 50, 999, 1000, 5000, 100_000]))
    opener, closer = draw(st.sampled_from([("[", "]"), ('{"a": ', "}")]))
    nest = opener * depth + "0" + closer * depth
    if draw(st.booleans()) and text.startswith("{"):
        return '{"deep": ' + nest + ", " + text[1:]
    at = draw(st.integers(0, len(text)))
    return text[:at] + nest + text[at:]


@settings(max_examples=20)
@given(_nested_state_files(), st.sampled_from(["analyze", "canonicalize", "roof"]))
def test_exit_code_contract_over_nested_state_files(text, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.json")
        with open(path, "w") as fh:
            fh.write(text)
        argv = [command, path]
        if command == "roof":
            argv += ["--measure", "k2", "--restarts", "1"]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv)
    assert rc in (0, 1, 2, 3)


# the mixing parameters of a sweep: uniform on [0, 1], log-uniform down to
# 1e-323 and subnormal
_SWEEP_Q = st.one_of(
    st.floats(0.0, 1.0),
    st.builds(lambda m, e: min(1.0, m * 10.0**e), st.floats(1.0, 10.0), st.integers(-323, 0)),
    st.floats(0.0, 2.2250738585072014e-308, allow_subnormal=True),
)


@settings(max_examples=20)
@given(_SWEEP_Q, _SWEEP_Q, st.integers(2, 6))
def test_exit_code_contract_over_sweep_grids(a, b, steps):
    assume(a != b)
    a, b = sorted((a, b))
    for sign in ("plus", "minus"):
        argv = ["sweep", "--family", "ghzw", "--sign", sign, "--q", f"{a!r}:{b!r}:{steps}"]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(argv)
        assert rc == 0, (argv, err.getvalue())
