"""Validation happens once, at the boundary.

The state-file parser and the public constructors check their input; nothing
the package derives from a checked object is checked again.  The core checks
are counted at every module that binds them while a command runs, and so is
every validating __post_init__, by class name.
"""

import contextlib
import io
import sys
from collections import Counter

import numpy as np
import pytest

import ktangle as kt
from ktangle import canonical, cli, core, ghzw, negativity, roof

from conftest import L2, L3, amplitudes_json, mixed_state, real_pure

_CHECKS = ("_check_density", "_check_norm", "_check_hermitian")
# every class whose __post_init__ validates (SubsystemLayout's also sets
# _total_dim, so every layout runs it)
_VALIDATED = (
    core.PureState,
    core.DensityOperator,
    core.LocalUnitary,
    canonical.CanonicalForm3Q,
    ghzw.GhzwParams,
    roof.Ensemble,
    roof.RoofBudget,
)


@pytest.fixture
def checks_of(monkeypatch):
    """checks_of(argv): the core check calls, by name, and the validating
    __post_init__ calls, by class name, of one command."""
    counts = Counter()
    for name in _CHECKS:
        original = getattr(core, name)

        def counted(*args, name=name, original=original):
            counts[name] += 1
            return original(*args)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "ktangle" and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    for cls in _VALIDATED:

        def post_init(self, original=cls.__post_init__):
            counts[type(self).__name__] += 1
            return original(self)

        monkeypatch.setattr(cls, "__post_init__", post_init)

    def run(argv):
        counts.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        return +counts

    return run


@pytest.mark.parametrize("qubits", ["3", "4"])
def test_audit_checks_nothing_it_drew_itself(checks_of, qubits):
    assert checks_of(["audit", "--random", "600", "--seed", "3", "--qubits", qubits]) == {}


def test_analyze_pure_checks_the_norm_once(checks_of, write_state):
    # the canonical forms and their unitaries are derived, not checked
    psi = real_pure(L3, np.random.default_rng(1))
    path = write_state("pure.json", {"dims": [2, 2, 2], "amplitudes": amplitudes_json(psi.amplitudes)})
    for argv in (["analyze", path, "--canonical"], ["canonicalize", path]):
        assert checks_of(argv) == {"_check_norm": 1, "PureState": 1}


def test_analyze_matrix_checks_the_density_once(checks_of, write_state):
    rho = mixed_state(L3, np.random.default_rng(2), real=True)
    doc = {"dims": [2, 2, 2], "matrix": [amplitudes_json(row) for row in rho.matrix]}
    got = checks_of(["analyze", write_state("mixed.json", doc)])
    assert got == {"_check_density": 1, "_check_hermitian": 1, "DensityOperator": 1}


def test_roof_and_sweep_check_no_density(checks_of, write_state):
    rng = np.random.default_rng(3)
    members = [
        {"p": p, "amplitudes": amplitudes_json(kt.haar_random_pure(L2, rng).amplitudes)}
        for p in (0.3, 0.7)
    ]
    path = write_state("ens.json", {"dims": [2, 2], "ensemble": members})
    got = checks_of(["roof", path, "--focus", "A", "--measure", "global", "--restarts", "2"])
    assert got["_check_density"] == got["_check_hermitian"] == 0, got
    # the parser's members and ensemble and the CLI's budget; the density,
    # the members and the certificate the roof derives are not checked
    assert got == {"_check_norm": 2, "PureState": 2, "Ensemble": 1, "RoofBudget": 1}
    # the sign, the q range and the step count are the sweep's boundary: the
    # grid's parameters, states, forms and unitaries (the exact q = 0, 1
    # limits included) are built by construction, and nothing derived is checked
    for sign in ("minus", "plus"):
        assert checks_of(["sweep", "--family", "ghzw", "--sign", sign, "--q", "0:1:11"]) == {}


def test_two_qubit_global_roof_runs_no_search_and_no_check(checks_of, monkeypatch, write_state):
    # the exact route evaluates no member and checks nothing the parser has
    # not checked; the three-qubit k2 roof still searches
    made = []
    original = roof._member_value

    def member_value(*args):
        made.append(args)
        return original(*args)

    monkeypatch.setattr(roof, "_member_value", member_value)
    rng = np.random.default_rng(5)
    for layout, measure, searched in ((L2, "global", False), (L3, "k2", True)):
        members = [
            {"p": p, "amplitudes": amplitudes_json(kt.haar_random_pure(layout, rng).amplitudes)}
            for p in (0.2, 0.3, 0.5)
        ]
        dims = list(layout.dims)
        path = write_state(f"ens{len(dims)}.json", {"dims": dims, "ensemble": members})
        made.clear()
        argv = ["roof", path, "--focus", "B", "--measure", measure, "--restarts", "2"]
        got = checks_of(argv)
        assert bool(made) is searched
        if not searched:
            # the parser's, one per file member, and the CLI's budget
            assert got == {"_check_norm": 3, "PureState": 3, "Ensemble": 1, "RoofBudget": 1}


def test_reports_and_roof_members_run_no_hermiticity_pass(monkeypatch):
    # the transposes only move entries: neither the report of a pure or a
    # density stack nor a k2 roof member measures a hermiticity defect
    rng = np.random.default_rng(13)
    amps = np.stack([kt.haar_random_pure(L3, rng).amplitudes for _ in range(4)])
    rho = mixed_state(L3, rng)
    dens = np.stack([rho.matrix, mixed_state(L3, rng).matrix])
    shapes = []
    name = "_hermiticity_defect"
    original = getattr(core, name)

    def counted(M):
        shapes.append(M.shape)
        return original(M)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "ktangle" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    for state in (amps, dens):
        for p in range(3):
            negativity._report_arrays(state, L3.dims, p, {})
    roof._member_value("k2", 1, L3)(amps)
    assert shapes == []
    # the count sees the public transpose's check of its input
    kt.global_pt(rho, 0)
    assert shapes == [(8, 8)]
