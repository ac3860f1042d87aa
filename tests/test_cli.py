import ast
import csv
import hashlib
import inspect
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from mobius_partitions import cli, identities
from mobius_partitions.cli import main
from mobius_partitions.identities import build_a, build_b
from mobius_partitions.arith import build_sieve, totient_row
from mobius_partitions.partitions import sr_table_enum
from identities_reference import closure_build_a


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_b_csv(capsys):
    code, out, _ = run(capsys, "table", "b", "--rmax", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["r", "0", "1"]
    assert rows[1] == ["1", "1", ""]
    assert rows[2] == ["2", "1", "-1"]


def test_table_csv_round_trips(capsys):
    for which, rmax in (("b", 6), ("a", 7)):
        code, out, _ = run(capsys, "table", which, "--rmax", str(rmax), "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        parsed = [[int(c) for c in row[1:] if c != ""] for row in rows[1:]]
        builder = build_b if which == "b" else (lambda r: build_a(r, build_sieve(r)))
        assert parsed == builder(rmax)


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "b", "--rmax", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "b"
    assert doc["params"] == {"rmax": 3}
    assert doc["rows"][2][:4] == [1, -1, -1, 1]


def test_table_p_text(capsys):
    code, out, _ = run(capsys, "table", "p", "--nmax", "4")
    assert code == 0
    assert out.strip() == "1,1,2,3,5"


def test_table_p_csv(capsys):
    code, out, _ = run(capsys, "table", "p", "--nmax", "6", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "p"]
    assert [int(r[1]) for r in rows[1:]] == [1, 1, 2, 3, 5, 7, 11]


def test_table_sr_contains_known_entry(capsys):
    code, out, _ = run(capsys, "table", "sr", "--r", "3", "--nmax", "9", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    header = rows[0]
    k_col = header.index("3")
    n_row = next(r for r in rows[1:] if r[0] == "9")
    assert n_row[k_col] == "4"


def test_table_text_format(capsys):
    code, out, _ = run(capsys, "table", "b", "--rmax", "4")
    assert code == 0
    assert "-1" in out


def test_table_out_file(tmp_path, capsys):
    path = tmp_path / "b.csv"
    code, out, _ = run(capsys, "table", "b", "--rmax", "3", "--format", "csv", "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_text().startswith("r,0,1,2,3")


@pytest.mark.parametrize(
    "argv", [["verify", "thm1", "--nmax", "5"], ["table", "b", "--rmax", "3"], ["examples"]]
)
def test_unwritable_out_is_usage_error(tmp_path, capsys, argv):
    # exit 1 would say that a verification failed
    path = tmp_path / "missing" / "x"
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert (code, out, err) == (2, "", f"error: cannot write {path}: No such file or directory\n")


def test_table_missing_params(capsys):
    code, _, err = run(capsys, "table", "b")
    assert code == 2 and "rmax" in err
    code, _, err = run(capsys, "table", "sr", "--nmax", "5")
    assert code == 2


def test_verify_pass_and_json(capsys):
    code, out, _ = run(capsys, "verify", "lambert", "--nmax", "200")
    assert code == 0
    assert out.startswith("PASS lambert")
    code, out, _ = run(capsys, "verify", "thm1", "--r", "1", "--nmax", "50", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] and doc["checked"] == 51 and doc["failures"] == 0


def test_verify_each_identity(capsys):
    cases = [
        ("thm1", ["--r", "2", "--nmax", "30"]),
        ("thm2", ["--rmax", "5", "--nmax", "30"]),
        ("cor2", ["--nmax", "20"]),
        ("cor3", ["--nmax", "20"]),
        ("cor4", ["--nmax", "20"]),
        ("weighted", ["--r", "2", "--nmax", "15"]),
        ("phi", ["--nmax", "30"]),
        ("prime-alpha", ["--alpha", "3", "--nmax", "25", "--which", "ii"]),
        # the largest prime admitted, below 10^12
        ("prime-alpha", ["--alpha", "999999999989", "--nmax", "10"]),
        ("b-symmetry", ["--rmax", "8"]),
        ("lemma1", ["--nmax", "20", "--rmax", "3"]),
        ("lambert", ["--nmax", "100"]),
        ("oracle-sr", ["--nmax", "20", "--rmax", "3"]),
    ]
    for ident, extra in cases:
        code, out, err = run(capsys, "verify", ident, *extra)
        assert code == 0, (ident, err, out)
        assert out.startswith("PASS"), ident


@pytest.mark.parametrize(
    "ident, params",
    [
        ("thm1", {"nmax": 100, "r": 1}),
        ("thm2", {"nmax": 60, "rmax": 6}),
        ("cor2", {"nmax": 45}),
        ("cor3", {"nmax": 45}),
        ("cor4", {"nmax": 45}),
        ("weighted", {"nmax": 30, "r": 1}),
        ("phi", {"nmax": 60}),
        ("prime-alpha", {"nmax": 50, "alpha": 2, "which": "i"}),
        ("b-symmetry", {"rmax": 10}),
        ("lemma1", {"nmax": 40, "rmax": 5}),
        ("lambert", {"nmax": 200}),
        ("oracle-sr", {"nmax": 30, "rmax": 4}),
    ],
)
def test_verify_defaults(capsys, ident, params):
    code, out, _ = run(capsys, "verify", ident, "--format", "json")
    doc = json.loads(out)
    assert code == 0 and doc["passed"]
    assert (doc["identity"], doc["params"]) == (ident, params)


def test_verify_unknown_identity(capsys):
    code, _, err = run(capsys, "verify", "fermat")
    assert code == 2
    assert "unknown identity" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["b-symmetry", "--rmax", "0"],
        ["thm1", "--r", "0"],
        ["prime-alpha", "--alpha", "0"],
    ],
)
def test_verify_explicit_zero_is_not_replaced_by_default(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_verify_negative_counterexample_cap_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "lambert", "--nmax", "10", "--max-counterexamples", "-3")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--max-counterexamples" in err
    # an explicit 0 keeps no counterexamples but still runs the sweep
    code, out, _ = run(capsys, "verify", "lambert", "--nmax", "10", "--max-counterexamples", "0")
    assert code == 0 and out.startswith("PASS lambert")


@pytest.mark.parametrize(
    "argv",
    [
        ["cor4", "--nmax", "3"],
        ["lemma1", "--nmax", "1"],
        ["lemma1", "--nmax", "0", "--rmax", "3"],
        ["lemma1", "--nmax", "1", "--rmax", "5"],
    ],
)
def test_verify_checking_nothing_is_usage_error(capsys, request, argv):
    if argv[0] == "lemma1":
        # refused before the first table
        request.getfixturevalue("no_allocation")
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert "checks nothing" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "thm1", "--which", "ii"], "--which"),
        (["verify", "lambert", "--rmax", "3"], "--rmax"),
        (["verify", "b-symmetry", "--rmax", "4", "--nmax", "5"], "--nmax"),
        (["verify", "phi", "--alpha", "2"], "--alpha"),
        (["table", "p", "--r", "3"], "--r"),
        (["table", "p", "--nmax", "4", "--r", "3"], "--r"),
        (["table", "b", "--rmax", "3", "--alpha", "2"], "--alpha"),
        (["table", "sr", "--r", "2", "--nmax", "5", "--rmax", "3"], "--rmax"),
    ],
)
def test_ignored_flag_is_usage_error(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and flag in err


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle-sr", "--nmax", "100", "--rmax", "2"],
        ["weighted", "--r", "1", "--nmax", "100"],
    ],
)
def test_verify_oversized_enumeration_is_refused(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "capped" in err


def test_verify_bad_alpha(capsys):
    code, _, err = run(capsys, "verify", "prime-alpha", "--alpha", "6", "--nmax", "5")
    assert code == 2
    assert "prime" in err


def test_verify_composite_alpha_builds_no_sieve(capsys, monkeypatch):
    def refuse(limit):
        raise AssertionError("sieve built")

    monkeypatch.setattr(identities, "build_sieve", refuse)
    monkeypatch.setattr(identities, "totient_row", refuse)
    # 10^12 + 39 and 2^61 - 1 are prime, but too large to test by trial division
    for alpha, reason in ((4, "not prime"), (10**12 + 39, "over 10^12"), (2**61 - 1, "over 10^12")):
        code, out, err = run(capsys, "verify", "prime-alpha", "--alpha", str(alpha), "--nmax", "5")
        assert code == 2 and out == "", alpha
        assert err.startswith("error:") and reason in err, alpha


def test_out_of_memory_is_numeric_error(capsys, monkeypatch):
    def exhausted(nmax, cap):
        raise MemoryError

    monkeypatch.setattr(identities, "verify_lambert", exhausted)
    code, out, err = run(capsys, "verify", "lambert", "--nmax", "10")
    assert code == 3 and out == ""
    assert err.startswith("error:") and "memory" in err


def test_index_fault_is_internal_error(capsys, monkeypatch):
    # no flag value reaches a table read out of range, so one is a fault of
    # the program, not a usage error
    def out_of_range(nmax, cap):
        raise IndexError("n=11 outside 0..10")

    monkeypatch.setattr(identities, "verify_lambert", out_of_range)
    code, out, err = run(capsys, "verify", "lambert", "--nmax", "10")
    assert (code, out) == (cli.EXIT_NUMERIC, "")
    assert err == "internal error: n=11 outside 0..10\n"


def test_counterexample_cap_default_is_the_identities_constant():
    args = cli.build_parser().parse_args(["verify", "thm1"])
    assert args.max_counterexamples == identities.DEFAULT_COUNTEREXAMPLE_CAP


def test_verify_refuses_csv_format(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "thm1", "--nmax", "5", "--format", "csv"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "invalid choice: 'csv'" in captured.err


@pytest.mark.parametrize(
    "argv",
    [["verify", ident, "--nmax"] for ident, row in cli.IDENTITIES.items() if "nmax" in row.flags]
    + [["table", "p", "--nmax"], ["table", "sr", "--r", "1", "--nmax"]]
    + [["verify", ident, "--rmax"] for ident, row in cli.IDENTITIES.items() if "rmax" in row.flags]
    + [["table", "a", "--rmax"], ["table", "b", "--rmax"]],
)
def test_negative_nmax_names_the_flag(capsys, argv):
    # the last item of argv is the flag that gets -1
    code, out, err = run(capsys, *argv, "-1")
    assert (code, out, err) == (2, "", f"error: {argv[-1]} must be >= 0, got -1\n")


@pytest.fixture
def no_allocation(monkeypatch):
    """Every builder of a sieve, table or coefficient row the CLI reaches raises."""

    def refuse(*args, **kwargs):
        raise AssertionError("allocated")

    names = (
        "build_sieve", "totient_row", "build_a", "build_b", "sr_table_gf", "sr_table_enum", "part_counts",
        "partition_table_pentagonal",
    )
    for module in (cli, identities):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "thm1", "--nmax", "100000000"],
        ["verify", "thm2", "--nmax", "100000000"],
        ["verify", "thm2", "--nmax", "10", "--rmax", "100000000"],
        ["verify", "cor2", "--nmax", "100000000"],
        ["verify", "cor3", "--nmax", "100000000"],
        ["verify", "cor4", "--nmax", "100000000"],
        ["verify", "weighted", "--nmax", "100000000"],
        ["verify", "phi", "--nmax", "100000000"],
        ["verify", "prime-alpha", "--nmax", "100000000"],
        ["verify", "b-symmetry", "--rmax", "5000"],
        ["verify", "lemma1", "--nmax", "100000", "--rmax", "8"],
        ["verify", "lambert", "--nmax", "100000000"],
        ["verify", "oracle-sr", "--nmax", "100000"],
        ["table", "a", "--rmax", "5000"],
        ["table", "b", "--rmax", "5000"],
        ["table", "sr", "--r", "1", "--nmax", "100000"],
        ["table", "p", "--nmax", "100000000"],
        ["verify", "prime-alpha", "--nmax", "100000000", "--which", "i"],
        ["verify", "prime-alpha", "--nmax", "100000000", "--which", "ii"],
    ],
)
def test_oversized_run_is_refused_before_allocating(capsys, no_allocation, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {argv[0]} {argv[1]} would need about") and "GiB limit" in err


@pytest.mark.parametrize("nmax", [0, 5])
def test_thm2_refuses_rmax_0_before_building(capsys, no_allocation, nmax):
    code, out, err = run(capsys, "verify", "thm2", "--nmax", str(nmax), "--rmax", "0")
    assert (code, out, err) == (2, "", "error: rmax must be >= 1, got 0\n")


@pytest.mark.parametrize("nmax, rmax", [(3, 5), (0, 1)])
def test_oracle_sr_refuses_rmax_over_nmax_before_building(capsys, no_allocation, nmax, rmax):
    code, out, err = run(capsys, "verify", "oracle-sr", "--nmax", str(nmax), "--rmax", str(rmax))
    assert (code, out) == (2, "")
    assert err == f"error: rmax={rmax} exceeds nmax={nmax}: S^(r) needs r <= nmax\n"


def _traced_peak(call, *args, **kwargs):
    """The tracemalloc peak of one call, in bytes."""
    tracemalloc.start()
    try:
        call(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("nmax, rmax", [(20, 1), (20, 20)])
def test_oracle_sr_price_covers_its_peak(nmax, rmax):
    peak = _traced_peak(identities.verify_sr_oracle, nmax, rmax)
    assert peak <= cli.IDENTITIES["oracle-sr"].price(nmax=nmax, rmax=rmax)


def test_alternate_form_sieves_only_what_it_reads(capsys, monkeypatch):
    # every form reads mu(k) for k <= nmax + r only, however large alpha is
    limits = []
    real = identities.build_sieve

    def spy(limit):
        limits.append(limit)
        if limit > 10**5:
            raise AssertionError(f"sieve to {limit}")
        return real(limit)

    monkeypatch.setattr(identities, "build_sieve", spy)
    for which, r in (("i", 1), ("ii", 2), ("alternate-form", 1)):
        limits.clear()
        code, out, err = run(
            capsys, "verify", "prime-alpha", "--which", which, "--alpha", "1000003", "--nmax", "1000"
        )
        assert (code, err, limits) == (0, "", [1000 + r]), which
        assert out.endswith(": 1001 checks, 0 failures\n"), which


@pytest.mark.parametrize(
    "nmax, alpha, which",
    [(300, 7, "i"), (300, 7, "ii"), (300, 7, "alternate-form"), (1000, 101, "alternate-form"),
     (1000, 1000003, "i"), (1000, 1000003, "ii")],
)
def test_prime_alpha_price_covers_its_peak(nmax, alpha, which):
    peak = _traced_peak(identities.verify_prime_corollary, nmax, alpha, which)
    assert peak <= cli.IDENTITIES["prime-alpha"].price(nmax=nmax, alpha=alpha, which=which)


@pytest.mark.parametrize(
    "name, values",
    [
        ("thm1", {"nmax": 3000, "r": 2}), ("cor4", {"nmax": 3000}), ("phi", {"nmax": 3000}),
        ("lemma1", {"nmax": 120, "rmax": 8}), ("lemma1", {"nmax": 200, "rmax": 2}),
        ("lemma1", {"nmax": 300, "rmax": 8}), ("b-symmetry", {"rmax": 200}),
        ("thm2", {"nmax": 400, "rmax": 12}), ("thm2", {"nmax": 20, "rmax": 60}),
        ("thm2", {"nmax": 10, "rmax": 300}), ("thm2", {"nmax": 0, "rmax": 1}), ("thm2", {"nmax": 0, "rmax": 2}),
        ("weighted", {"nmax": 45, "r": 2}),
    ],
    ids=["thm1", "cor4", "phi", "lemma1-120-8", "lemma1-200-2", "lemma1-300-8", "b-symmetry-200",
         "thm2-400-12", "thm2-20-60", "thm2-10-300", "thm2-0-1", "thm2-0-2", "weighted-45-2"],
)
def test_sweep_price_covers_its_peak(name, values):
    row = cli.IDENTITIES[name]
    peak = _traced_peak(getattr(identities, row.verifier), **row.fixed, **values)
    assert peak <= row.price(**values)


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
@pytest.mark.parametrize(
    "kind, values",
    [("sr", {"r": 1, "nmax": 250}), ("b", {"rmax": 60}), ("a", {"rmax": 40}), ("p", {"nmax": 2500}),
     ("sr", {"r": 1, "nmax": 600})],
    ids=["sr", "b", "a", "p", "sr-600"],
)
def test_table_price_covers_its_peak(tmp_path, kind, values, fmt):
    # the whole command, formatting and writing included
    argv = ["table", kind, *(x for flag, v in values.items() for x in (f"--{flag}", str(v)))]
    out = tmp_path / "table.out"
    peak = _traced_peak(cli.main, [*argv, "--format", fmt, "--out", str(out)])
    assert out.stat().st_size > 0
    assert peak <= cli.TABLES[kind].price(**values)


def test_lambert_price_covers_its_peak():
    nmax = 200_000
    peak = _traced_peak(identities.verify_lambert, nmax)
    assert peak <= cli.IDENTITIES["lambert"].price(nmax=nmax)


@pytest.mark.parametrize(
    "build, entry_bytes", [(build_sieve, cli.MU_ENTRY_BYTES), (totient_row, cli.PHI_ENTRY_BYTES)]
)
def test_sieve_price_covers_its_peak(build, entry_bytes):
    limit = 10**5
    assert _traced_peak(build, limit) <= entry_bytes * limit


@pytest.mark.parametrize(
    "command, name, values",
    [
        ("verify", "lambert", {"nmax": 200_000}),
        ("verify", "thm1", {"nmax": 50_000, "r": 2}),
        ("verify", "thm2", {"nmax": 2000, "rmax": 30}),
        ("verify", "phi", {"nmax": 10_000}),
        ("verify", "prime-alpha", {"nmax": 800, "alpha": 7, "which": "ii"}),
        ("verify", "b-symmetry", {"rmax": 100}),
        ("verify", "lemma1", {"nmax": 300, "rmax": 8}),
        ("verify", "oracle-sr", {"nmax": 45, "rmax": 6}),
        ("table", "sr", {"r": 1, "nmax": 250}),
        ("table", "p", {"nmax": 2500}),
        ("table", "a", {"rmax": 40}),
        ("table", "b", {"rmax": 60}),
    ],
)
def test_documented_sizes_are_admitted(command, name, values):
    registry = cli.IDENTITIES if command == "verify" else cli.TABLES
    assert registry[name].price(**values) <= cli.MEMORY_BUDGET


@pytest.mark.parametrize(
    "argv",
    [["sr", "--r", "1", "--nmax", "4264"], ["a", "--rmax", "409"], ["b", "--rmax", "445"],
     ["p", "--nmax", "710648"]],
    ids=["sr", "a", "b", "p"],
)
def test_formats_are_priced_alike(capsys, no_allocation, argv):
    # every format writes one row at a time, so none is refused at a size
    # the others are admitted at; these are the largest sizes csv was
    # admitted at when json and text were priced per str cell.  An admitted
    # run reaches a builder, which raises here.
    for fmt in ("csv", "json", "text"):
        code, out, err = run(capsys, "table", *argv, "--format", fmt)
        assert (code, out, err) == (cli.EXIT_NUMERIC, "", "numeric error: allocated\n"), fmt


def test_registry_matches_readme_and_identities():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    catalogue = readme[readme.index("## Identity catalogue"):]
    assert set(re.findall(r"^\| `([\w-]+)` \|", catalogue, re.M)) == set(cli.IDENTITIES)
    verifiers = {name for name in vars(identities) if name.startswith("verify_")}
    assert {row.verifier for row in cli.IDENTITIES.values()} == verifiers
    # a verifier takes exactly what its row sets, so no parameter is reachable
    # from tests alone
    for ident, row in cli.IDENTITIES.items():
        params = inspect.signature(getattr(identities, row.verifier)).parameters
        assert set(params) == set(row.flags) | set(row.fixed) | {"cap"}, ident


# SHA-256 of the stdout of each mobius-partitions line of README's CLI
# block, its trailing comment stripped
README_CLI_DIGESTS = {
    "table b --rmax 6 --format csv": "a1a3d71000724a581461264c37d883fda837692af36511a52175afbc20d0f367",
    "table a --rmax 7": "677e00f66bf15d38579c6ef9ecc662c31721b75457c0576da023b482c7637969",
    "table p --nmax 10": "167596a486ea703baa3b55cfaf2f8c82965d10280f74cfbaf9a017b0cd188bc9",
    "table sr --r 3 --nmax 20 --format csv": "ffa841628ec512447ca885ea33d419f53383e2137d3964e9b7fb11bbea1b4e5e",
    "verify thm1 --r 1 --nmax 200": "fd1e2f4a8d3c3e1d17a5a1b6015b8b3788fedc522d39f4785876c5386e730a2a",
    "verify thm2 --rmax 10 --nmax 100": "5dda2a9381d4a4d947cd800be5ed0ff890a61678b3ffd102a6e722da3c9b968c",
    "verify cor2 --nmax 45": "7ad756c36d993efbc96b7e9afa802787ebf61f9a89d4a5ab52d4f47532223e8a",
    "verify cor3 --nmax 45": "e5d8dad40417ce4d08a4cc4bdfa065c925c44a86edfe43a8f9f1950ff6cf1d0d",
    "verify cor4 --nmax 100 --format json": "7b18536101a3daf03f91527a981de2c74cb5fa255c04bb0728dc17b041562e88",
    "verify phi --nmax 100": "bc2df783e421187105d5cafce35e73ba9fa436085a75e119292f681111f4a379",
    "verify prime-alpha --alpha 2 --nmax 100 --which i": "2c8d98cf498eec8bb00582b4c6043174ff3c25b9bcd5bbcfcec3122928a941b2",
    "verify lambert --nmax 500": "f1f10a17b436cab7ff0186d4eca7b4acbcc8584509e6e4c05a4fcf1c7222ab2e",
    "verify lemma1 --nmax 40 --rmax 5": "5b95f89e2cb4ffdac88cf8597b9280542f6912c07e3da4a936282b266efe3eed",
    "verify b-symmetry --rmax 10": "03cf07bbf5410bd7397d51953ed086cd43c8baf27bb5482a7b8731895e2d6882",
    "verify oracle-sr --nmax 40 --rmax 6": "3f2516966cc92141f5c6e303a08ab077fdd82555217033601be07f054f518d72",
    "verify weighted --r 2 --nmax 30": "b77ea7370692d1f344e8f73fac1be333202289bdb349dfe86750cd6edf35f824",
    "examples": "48db0e9557e958469cbad1aae7d636d9381ee2d837f55c538e4b93b88a54dbe7",
    "examples --only cor3-n8 --format json": "e4bd436010687a3cf6e1093442eb682373deff2c80a93a566941e95d9de692e7",
}


def test_readme_cli_lines_print_pinned_output(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## CLI\n\n```sh\n(.*?)^```", readme, re.M | re.S).group(1)
    digests = {}
    for line in re.findall(r"^mobius-partitions (.*)$", block, re.M):
        argv = shlex.split(line, comments=True)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), line
        digests[" ".join(argv)] = hashlib.sha256(out.encode()).hexdigest()
    # a line without a pinned digest, or a pin without its line, fails here
    assert digests == README_CLI_DIGESTS


def _sr_rendering(r, nmax, fmt):
    """table sr output for S^(r), 0 <= n <= nmax, from the enumeration
    oracle: columns k = r..nmax, cells with k > n blank in csv and text and
    0 in json, text columns right-aligned to their widest entry."""
    oracle = sr_table_enum(r, nmax)
    ks = list(range(r, nmax + 1))
    cells = [[oracle.count(n, k) if k <= n else None for k in ks] for n in range(nmax + 1)]
    if fmt == "json":
        rows = [[0 if v is None else v for v in row] for row in cells]
        return json.dumps({"kind": "sr", "params": {"r": r, "nmax": nmax}, "rows": rows}) + "\n"
    text = [["" if v is None else str(v) for v in row] for row in cells]
    if fmt == "csv":
        lines = [",".join(["n"] + [str(k) for k in ks])]
        lines += [",".join([str(n)] + row) for n, row in enumerate(text)]
        return "\n".join(lines) + "\n"
    widths = [max([len(str(k))] + [len(row[i]) for row in text]) for i, k in enumerate(ks)]
    label = len(str(nmax))
    lines = [" ".join([" " * label] + [str(k).rjust(w) for k, w in zip(ks, widths)])]
    for n, row in enumerate(text):
        lines.append(" ".join([str(n).rjust(label)] + [v.rjust(w) for v, w in zip(row, widths)]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
@pytest.mark.parametrize("r", [1, 3])
def test_table_sr_output_is_pinned(capsys, r, fmt):
    code, out, _ = run(capsys, "table", "sr", "--r", str(r), "--nmax", "30", "--format", fmt)
    assert code == 0
    assert out == _sr_rendering(r, 30, fmt)


def _coefficient_rendering(kind, rmax, fmt):
    """table a or table b output for rows r = 1..rmax, from the reference
    builder for a: columns j up to the longest row's end, cells past a
    row's end blank in csv and text and 0 in json, text columns
    right-aligned to their widest entry."""
    rows = closure_build_a(rmax, build_sieve(rmax)) if kind == "a" else build_b(rmax)
    width = max(map(len, rows))
    cells = [row + [None] * (width - len(row)) for row in rows]
    if fmt == "json":
        dense = [[0 if v is None else v for v in row] for row in cells]
        return json.dumps({"kind": kind, "params": {"rmax": rmax}, "rows": dense}) + "\n"
    lines = [[""] + [str(j) for j in range(width)]]
    lines += [[str(r)] + ["" if v is None else str(v) for v in row] for r, row in enumerate(cells, 1)]
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([["r"] + lines[0][1:]] + lines[1:])
        return buf.getvalue()
    widths = [max(len(line[i]) for line in lines) for i in range(width + 1)]
    return "".join(" ".join(v.rjust(w) for v, w in zip(line, widths)) + "\n" for line in lines)


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
@pytest.mark.parametrize("rmax", [1, 2, 7, 25])
@pytest.mark.parametrize("kind", ["a", "b"])
def test_table_coefficient_output_is_pinned(capsys, kind, rmax, fmt):
    # negative cells, ragged rows padded blank, and at rmax 25 json rows
    # written in more than one block
    code, out, _ = run(capsys, "table", kind, "--rmax", str(rmax), "--format", fmt)
    assert code == 0
    assert out == _coefficient_rendering(kind, rmax, fmt)


def test_examples_all_pass(capsys):
    code, out, _ = run(capsys, "examples")
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l]
    assert len(lines) == 5
    assert all(l.startswith("PASS") for l in lines)


def test_examples_json(capsys):
    code, out, _ = run(capsys, "examples", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 5
    assert all(b["passed"] for b in doc)
    names = {b["name"] for b in doc}
    assert names == {"thm1-r1", "thm1-r2", "cor2-n6", "cor3-n8", "cor4-n12"}


def test_examples_only(capsys):
    code, out, _ = run(capsys, "examples", "--only", "cor3-n8")
    assert code == 0
    assert out.strip().startswith("PASS cor3-n8")
    code, _, err = run(capsys, "examples", "--only", "nope")
    assert code == 2


def test_cli_imports_only_the_standard_library():
    # the package has zero runtime dependencies: a fresh interpreter that
    # imports the CLI loads nothing from outside the standard library
    src = Path(cli.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "before = set(sys.modules)\n"
        "import mobius_partitions.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-B", "-c", code, str(src)], capture_output=True, text=True, timeout=60, check=True
    )
    loaded = {name.partition(".")[0] for name in proc.stdout.split()}
    assert "mobius_partitions" in loaded
    assert not loaded - set(sys.stdlib_module_names) - {"mobius_partitions"}
    # nor the heavy parts of it that dataclasses would pull in
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def test_modules_use_no_private_name_of_another():
    # a module reaches another package module only through its public names,
    # whether imported or read as module._name; tests may read private names
    package = Path(cli.__file__).resolve().parent
    uses = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        modules = set()  # the names this module binds to package modules
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update(a.asname or a.name for a in node.names if a.name.startswith("mobius_partitions"))
            elif isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("mobius_partitions")):
                if node.module in (None, "mobius_partitions"):
                    modules.update(a.asname or a.name for a in node.names)
                uses += [(path.name, a.name) for a in node.names if _private(a.name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and _private(node.attr) and ast.unparse(node.value) in modules:
                uses.append((path.name, f"{ast.unparse(node.value)}.{node.attr}"))
    assert uses == []


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 2


def test_module_entry_point_runs(tmp_path):
    # python -m mobius_partitions runs __main__.py, the package's one entry
    # point besides the mobius-partitions console script
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}

    def run_module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "mobius_partitions", *argv],
            capture_output=True, text=True, timeout=60, cwd=tmp_path, env=env,
        )

    proc = run_module("verify", "thm1", "--nmax", "20")
    assert proc.returncode == 0 and proc.stderr == ""
    assert any(line.startswith("PASS thm1 ") for line in proc.stdout.splitlines())
    assert run_module("verify", "thm1", "--which", "ii").returncode == 2


def test_names_the_benchmark_reads(monkeypatch):
    # perfbench/checks.py calls these by position, and perfbench/tracing.py
    # binds the arguments of these by name, retypes each gf table and wraps
    # the series product: a rename here breaks the benchmark and, but for
    # this test, no other tier-1 test
    import inspect

    from mobius_partitions import arith, partitions, series

    assert partitions.partition_table_gf(10).values[10] == 42
    assert sum(1 for _ in partitions.enumerate_partitions(10)) == 42
    assert partitions.sr_table_enum(3, 12).count(12, 3) == 8
    assert tuple(series.pochhammer(1, 2, 4).coeffs) == (1, -1, -1, 1, 0)
    for fn, names in (
        (arith.build_sieve, {"limit"}),
        (series.pochhammer, {"start", "factors", "order"}),
        (series.lambert_sum, {"order"}),
        (partitions.sr_table_gf, {"r", "limit"}),
    ):
        assert names <= set(inspect.signature(fn).parameters), fn.__name__
    # the tracer looks these up with getattr(module, name, None), so a
    # rename would drop their spans without an error
    for module, name in (
        (partitions, "partition_table_pentagonal"),
        (partitions, "count_restricted"),
        (identities, "build_a"),
        (identities, "build_b"),
    ):
        assert callable(getattr(module, name, None)), name

    class Counting(partitions.SrTable):
        __slots__ = ()

    table = partitions.sr_table_gf(3, 12)
    table.__class__ = Counting
    assert table.count(12, 3) == 8

    products = []
    real = series.TruncatedSeries.__mul__

    def counted(self, other):
        products.append(None)
        return real(self, other)

    monkeypatch.setattr(series.TruncatedSeries, "__mul__", counted)
    one = series.TruncatedSeries([1, 1], 1)
    assert (one * one).coeffs == (1, 2) and len(products) == 1

    small = {"nmax": 8, "rmax": 3, "r": 1, "alpha": 2, "which": "i"}
    for name, row in cli.IDENTITIES.items():
        verifier = getattr(identities, row.verifier)
        report = verifier(**row.fixed, **{flag: small[flag] for flag in row.flags})
        assert report.checked > 0 and report.failures == 0, name
