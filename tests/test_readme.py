"""The README's examples run as written: its Python blocks and its experiment spec."""

import json
import re
from pathlib import Path

from pnewton.harness import cli_main

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.M | re.S)


def test_readme_python_blocks_run(capsys):
    blocks = _blocks("python")
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:  # later blocks use names the earlier ones define
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["trace"].termination == "converged"
    assert namespace["report"].aggregate.all_certified


def test_readme_experiment_spec_runs(tmp_path, capsys, monkeypatch):
    (spec,) = _blocks("json")
    monkeypatch.chdir(tmp_path)  # the spec writes to its relative "out"
    (tmp_path / "experiment.json").write_text(spec)
    assert cli_main(["run", "experiment.json"]) == 0
    out = tmp_path / json.loads(spec)["out"]
    assert [entry["name"] for entry in json.loads((out / "summary.json").read_text())["solvers"]] == [
        "newton", "pnm_c2", "anm",
    ]
