import importlib.util
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
