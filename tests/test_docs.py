"""The README and the scripts name only the public API that exists, and
the committed benchmark trajectory files are complete."""

import json
import re
from pathlib import Path

import ktangle as kt

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def test_every_kt_name_in_the_docs_is_public():
    # a script that does not import the package as kt (a tool driving the
    # CLI) must name no kt attribute at all
    for path in [ROOT / "README.md", *sorted((ROOT / "scripts").glob("*.py"))]:
        text = path.read_text()
        names = set(re.findall(r"\bkt\.([A-Za-z_]\w*)", text))
        if path.suffix == ".md" or "import ktangle as kt" in text:
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


def test_every_bench_file_covers_every_workload_and_metric():
    # each BENCH_<pr>.json records, for every workload BENCHMARK.json names,
    # the median and quartiles of both sides on every end-to-end metric
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [m["name"] for m in spec["end_to_end"]]
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        workloads = json.loads(path.read_text())["workloads"]
        for w in spec["workloads"]:
            entry = workloads[w["name"]]
            for side in ("parent", "change"):
                for m in metrics:
                    stats = entry[side][m]
                    assert set(stats) >= {"median", "q1", "q3"}, (path.name, w["name"], side, m)
                    assert all(isinstance(stats[k], (int, float)) for k in ("median", "q1", "q3"))
