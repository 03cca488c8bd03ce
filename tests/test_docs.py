"""The README and the scripts name only the public API that exists."""

import re
from pathlib import Path

import ktangle as kt

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def test_every_kt_name_in_the_docs_is_public():
    for path in [ROOT / "README.md", *sorted((ROOT / "scripts").glob("*.py"))]:
        names = set(re.findall(r"\bkt\.([A-Za-z_]\w*)", path.read_text()))
        assert names, path.name
        assert sorted(names - set(kt.__all__)) == [], path.name


def test_the_boundary_list_names_real_functions():
    # the bullet list under "These check their input:"; its other code
    # spans name tolerances
    block = README.split("These check their input:\n\n")[1].split("\n\n")[0]
    tolerances = {"EPS_HERM", "EPS_NORM", "EPS_EIG"}
    names = set(re.findall(r"`([A-Za-z_]\w*)`", block)) - tolerances
    assert {"trace_norm", "negativity_from_pt"} <= names
    for name in sorted(names):
        assert name in kt.__all__ and callable(getattr(kt, name)), name
