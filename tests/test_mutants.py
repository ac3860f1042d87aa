import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.CATALOGUE, ids=lambda m: m.name)
def test_mutant_old_text_occurs_once(mutant):
    # the runner itself is not run here: one pytest per mutant takes minutes
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1


def test_every_named_test_exists():
    # a renamed test would otherwise show only when the runner's unmutated
    # pass stops on pytest's exit 4 (no such test)
    for mutant in mutants.CATALOGUE:
        for test in mutant.tests:
            path, _, name = test.partition("::")
            assert (ROOT / path).is_file(), test
            if name:
                name = name.split("[")[0]
                assert f"def {name}(" in (ROOT / path).read_text(), test


def test_committed_record_matches_catalogue():
    # MUTANTS.json is written by the runner; a mutant added or edited
    # without a rerun leaves it stale
    record = json.loads((ROOT / "MUTANTS.json").read_text())["mutants"]
    assert [(m["name"], m["file"], m["tests"]) for m in record] == [
        (m.name, m.file, list(m.tests)) for m in mutants.CATALOGUE
    ]
    assert all(m["status"] == "killed" for m in record)
