"""Smoke tests of the benchmark itself: tiny sizes of every workload.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import check_call  # noqa: E402
from run import failed_calls  # noqa: E402
from worker import load_program, run_call  # noqa: E402
from workloads import WORKLOADS, Call, build_calls, expected_checks  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_pass(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", trace, "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert json.loads(proc.stdout.splitlines()[-2])["wall_raw_min_s"] > 0
    if trace == "1":
        self_s = sum(v for name, v in values.items() if name.endswith(".self_s"))
        accounted = self_s + values["trace.remainder_s"]
        assert accounted == pytest.approx(values["trace.wall_s"], abs=1e-9)
        assert values["cli.main.calls"] == len(build_calls(workload, 7, "smoke"))
        assert values["identities.failures"] == 0
        spans = json.loads((ROOT / ".perfbench" / f"spans-{workload}-seed7-pass1.json").read_text())
        assert spans["workload"] == workload and spans["spans"]
    else:
        assert values["passed_share"] == 1.0


def test_seed_fixes_calls():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS:
        calls = [c.argv for c in build_calls(workload, 3)]
        assert calls == [c.argv for c in build_calls(workload, 3)]
        assert any(calls != [c.argv for c in build_calls(workload, s)] for s in range(4, 10))


def test_a_wrong_output_fails_in_every_pass():
    def report(digest, problems=None):
        call = {"argv": ["verify", "thm1"], "exit": 0, "digest": digest}
        if problems is not None:
            call["problems"] = problems
        return {"calls": [call]}

    bad_ref, good_ref = report("d", ["checked 0, expected 101"]), report("d", [])
    assert failed_calls(bad_ref, bad_ref)
    assert failed_calls(report("d"), bad_ref)
    assert not failed_calls(report("d"), good_ref)
    assert failed_calls(report("other"), good_ref)


@pytest.fixture(scope="module")
def program():
    return load_program()


def _run(program, call):
    code, out, _ = run_call(program.cli, call.argv)
    return code, out


@pytest.mark.parametrize("kind,params", [
    ("p", {"nmax": 25}), ("sr", {"r": 2, "nmax": 33}), ("a", {"rmax": 7}), ("b", {"rmax": 6}),
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_checks_accept_exports_and_catch_a_wrong_cell(program, kind, params, fmt):
    call = Call("table", kind, params, fmt)
    code, out = _run(program, call)
    assert check_call(call, code, out, program) == []
    row = min(20, params.get("rmax", 99) - 1)  # S^(r) cells are only checked up to n = 30
    if fmt == "csv":
        lines = out.splitlines()
        cells = lines[row + 1].split(",")
        cells[1] = str(int(cells[1]) + 1)
        lines[row + 1] = ",".join(cells)
        tampered = "\n".join(lines) + "\n"
    else:
        doc = json.loads(out)
        doc["rows"][row][0] += 1
        tampered = json.dumps(doc)
    assert check_call(call, code, tampered, program)


def test_checks_catch_replaced_param_and_vacuous_pass(program):
    call = Call("verify", "cor4", {"nmax": 10}, "json")
    code, out = _run(program, call)
    assert check_call(call, code, out, program) == []
    report = json.loads(out)
    assert report["checked"] == expected_checks("cor4", {"nmax": 10})
    vacuous = dict(report, checked=0)
    assert check_call(call, code, json.dumps(vacuous), program)
    replaced = dict(report, params={"nmax": 45})
    assert check_call(call, code, json.dumps(replaced), program)
    assert check_call(call, 1, out, program)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "gf-large-n", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
