"""Mutation check of the test suite: each mutant is one exact text edit to a
file of the package, listed with the tests that should fail once it is made.

    python3 tools/mutants.py

Run it from the root of a checkout.  The listed tests first run once on an
unmutated copy and must pass.  Then, for one mutant at a time, the runner
copies `src/`, `tests/`, `pyproject.toml` and `README.md` (whose identity
catalogue a test reads) into a fresh temporary directory, replaces the
mutant's old text by its new text there, and runs pytest on the mutant's
tests in one subprocess, stopped after TIMEOUT seconds; two never run at
once, and the checkout itself is never edited.
A mutant is "killed" when a test fails, "survived" when every test passes,
and "timeout" when the timeout stops it: a hang is reported apart from a
failure, and so is any other pytest exit (a collection error).  One record
per mutant goes to `MUTANTS.json` at the root of the checkout.  Exits 0
when every mutant was killed, 2 when the unmutated tests fail, and 1
otherwise.

Stdlib only.  A tier-1 test checks that each old text occurs exactly once
in its file, so that an edit to the package cannot leave a mutant stale.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ARITH = "src/mobius_partitions/arith.py"
SERIES = "src/mobius_partitions/series.py"
PARTITIONS = "src/mobius_partitions/partitions.py"
IDENTITIES = "src/mobius_partitions/identities.py"
CLI = "src/mobius_partitions/cli.py"
INDEPENDENCE = "tests/test_independence.py"
TIMEOUT = 600  # seconds per pytest run

Mutant = namedtuple("Mutant", "name file old new tests")

CATALOGUE = (
    # The byte-level Mobius sieve.
    Mutant(
        "sieve-xor-mask-one-slot-late", ARITH,
        "flip[s + 1 : limit // k + 1]",
        "flip[s + 2 : limit // k + 2]",
        ("tests/test_arith.py::test_mu_against_trial_division",
         "tests/test_arith.py::test_sieve_matches_linear_sieve"),
    ),
    Mutant(
        "sieve-cofactor-range-one-short", ARITH,
        "range(1, limit // (s + 1) + 1)",
        "range(1, limit // (s + 1))",
        ("tests/test_arith.py::test_sieve_matches_linear_sieve",
         "tests/test_arith.py::test_sieve_matches_linear_sieve_at_any_limit",
         "tests/test_acceptance.py::test_c06_lambert_identity"),
    ),
    Mutant(
        "sieve-prime-square-zeroing-dropped", ARITH,
        "            mu[p * p :: p * p] = bytes(limit // (p * p))\n",
        "",
        ("tests/test_arith.py::test_mu_zero_iff_squarefull",
         "tests/test_arith.py::test_known_mu_values"),
    ),
    Mutant(
        "sieve-bound-one-below-isqrt", ARITH,
        "\n    s = isqrt(limit)\n",
        "\n    s = isqrt(limit) - 1\n",
        ("tests/test_arith.py::test_known_mu_values",
         "tests/test_arith.py::test_mu_against_trial_division"),
    ),
    Mutant(
        "sieve-cofactor-guard-dropped", ARITH,
        "        if mu[k]:\n",
        "        if True:\n",
        ("tests/test_arith.py::test_mu_against_trial_division",
         "tests/test_arith.py::test_divisor_sum_identities",
         "tests/test_series.py::test_lambert_mu_collapses_to_q"),
    ),
    Mutant(
        "sieve-translate-table-not-swapping", ARITH,
        'bytes.maketrans(b"\\x01\\xff", b"\\xff\\x01")',
        'bytes.maketrans(b"\\x01\\xff", b"\\x01\\xff")',
        ("tests/test_arith.py::test_prime_entries",
         "tests/test_arith.py::test_known_mu_values"),
    ),
    # The series kernels.
    Mutant(
        "log-solve-half-read-one-slot-off", SERIES,
        "_mul(g[lo:mid], sigma[: hi - lo], hi - lo - 1, mid - lo)",
        "_mul(g[lo:mid], sigma[: hi - lo], hi - lo - 1, mid - lo - 1)",
        ("tests/test_series.py::test_pochhammer_inverse_matches_schoolbook",
         "tests/test_series.py::test_pochhammer_long_product_matches_inplace"),
    ),
    Mutant(
        "log-solve-base-sigma-slice-off-by-one", SERIES,
        "sigma[n - lo : 0 : -1]",
        "sigma[n - lo + 1 : 0 : -1]",
        ("tests/test_series.py::test_pochhammer_inverse_matches_schoolbook",
         "tests/test_series.py::test_pochhammer_matches_inplace_product"),
    ),
    Mutant(
        "log-solve-upper-half-one-slot-late", SERIES,
        "_solve(g, sigma, mid, hi)",
        "_solve(g, sigma, mid + 1, hi)",
        ("tests/test_series.py::test_pochhammer_inverse_matches_schoolbook",),
    ),
    Mutant(
        "pochhammer-one-factor-short", SERIES,
        "_factor_product(start, start + factors, -1, order)",
        "_factor_product(start, start + factors - 1, -1, order)",
        ("tests/test_series.py::test_pochhammer_known_rows",),
    ),
    # Without its sign the product's row is the inverse's.
    Mutant(
        "factor-product-row-without-its-sign", SERIES,
        "range(sign * start, sign * stop, sign)",
        "range(start, stop)",
        ("tests/test_series.py::test_pochhammer_known_rows",),
    ),
    Mutant(
        "unsigned-read-with-a-negative-operand", SERIES,
        "signed = low_a < 0 or low_b < 0",
        "signed = low_a < 0 and low_b < 0",
        ("tests/test_series.py::test_mul_full_slots",
         "tests/test_series.py::test_mul_matches_schoolbook"),
    ),
    Mutant(
        "slot-one-bit-narrow", SERIES,
        "        + signed\n",
        "        + signed - 1\n",
        ("tests/test_series.py::test_mul_full_slots",),
    ),
    Mutant(
        "signed-read-without-bias", SERIES,
        '        product += int.from_bytes(half.to_bytes(width, "little") * slots, "little")\n',
        "        pass\n",
        ("tests/test_series.py::test_mul_full_slots",
         "tests/test_series.py::test_mul_reads_from_start"),
    ),
    # The biased pack of a signed operand: its bias must leave every slot.
    Mutant(
        "signed-pack-bias-one-slot-short", SERIES,
        'half.to_bytes(width, "little") * len(a)',
        'half.to_bytes(width, "little") * (len(a) - 1)',
        ("tests/test_series.py::test_mul_full_slots",
         "tests/test_series.py::test_mul_matches_schoolbook"),
    ),
    Mutant(
        "signed-pack-bias-left-in", SERIES,
        'int.from_bytes(biased, "little") - int.from_bytes(',
        'int.from_bytes(biased, "little") + 0 * int.from_bytes(',
        ("tests/test_series.py::test_mul_full_slots",
         "tests/test_series.py::test_mul_matches_schoolbook"),
    ),
    # lambert_sum refuses a negative order before its divisor-sum pass.
    Mutant(
        "lambert-negative-order-refusal-dropped", SERIES,
        '        raise ValueError(f"order must be >= 0, got {order}")\n    if len(weights)',
        "        pass\n    if len(weights)",
        ("tests/test_series.py::test_lambert_refuses_a_negative_order_before_summing",),
    ),
    # The enumeration oracle's counting scan: each edit leaves the walk and
    # its partition count alone and miscounts the parts.
    Mutant(
        "part-counts-pop-charge-dropped", PARTITIONS,
        "            hist[a[k]] += t\n",
        "",
        ("tests/test_partitions.py::test_part_counts_matches_per_part_loop",
         "tests/test_partitions.py::test_sr_tables_enum_matches_per_part_loop"),
    ),
    Mutant(
        "part-counts-empty-prefix-copy-skipped", PARTITIONS,
        "                snap(x)\n                if 2 * x > y:\n",
        "                if 2 * x > y:\n",
        # a one-row scan (lo = hi) takes no copy, so the tests read rows s > lo
        ("tests/test_partitions.py::test_part_counts_matches_per_part_loop",
         "tests/test_identities.py::test_sr_oracle"),
    ),
    # The one inverse of weighted_sr_sums stepped down: dividing by 1 - q^s
    # takes a running sum along every residue class mod s, for every s from
    # the new r up to the old one.
    Mutant(
        "step-down-one-residue-class-short", PARTITIONS,
        "for c in range(s):",
        "for c in range(1, s):",
        ("tests/test_partitions.py::test_weighted_sr_sums_step_down_as_well_as_up",
         "tests/test_identities.py::test_phi_identities",
         "tests/test_identities.py::test_phi_injected_errors"),
    ),
    Mutant(
        "step-down-one-step-short", PARTITIONS,
        "for s in range(r, at):",
        "for s in range(r + 1, at):",
        ("tests/test_partitions.py::test_weighted_sr_sums_step_down_as_well_as_up",
         "tests/test_identities.py::test_phi_identities",
         "tests/test_identities.py::test_phi_injected_errors"),
    ),
    # Route leaks: one check takes both of its sides from one route.  The
    # values stay right, so only a test that perturbs what a route returns
    # sees them.
    Mutant(
        "weighted-sums-inverse-from-pentagonal-p", PARTITIONS,
        "            inv, at = list(pochhammer_inverse(1, order).coeffs), 1\n",
        "            inv, at = list(pochhammer_inverse(1, order).coeffs), 1\n"
        "            inv[:] = partition_table_pentagonal(order).values\n",
        (INDEPENDENCE,),
    ),
    # thm1 puts its p side first, as cor2-4's leg 1 and phi's form 3 do
    Mutant(
        "thm1-p-side-from-series-row", IDENTITIES,
        "(first, p_row, s_row) if p_first",
        "(first, s_row, s_row) if p_first",
        (INDEPENDENCE, "tests/test_identities.py::test_theorem1_injected_errors"),
    ),
    Mutant(
        "cor-count-leg-from-difference-leg", IDENTITIES,
        'count_by_part_size(top, **spec["recipe"])[nmin:]',
        "diff[: top + 1 - nmin]",
        (INDEPENDENCE, "tests/test_identities.py::test_corollary3_injected_errors"),
    ),
    Mutant(
        "oracle-sr-gf-table-against-itself", IDENTITIES,
        "fast.row(n, r, n), slow[r - 1][r : n + 1]",
        "fast.row(n, r, n), fast.row(n, r, n)",
        (INDEPENDENCE,),
    ),
    # The oracle's enumerated side: one scan per n holds the rows of every
    # r, and the check must read the row of its own r.
    Mutant(
        "oracle-sr-reads-the-row-of-r-minus-one", IDENTITIES,
        "slow[r - 1][r : n + 1]",
        "slow[r - 2][r : n + 1]",
        ("tests/test_identities.py::test_sr_oracle",
         "tests/test_acceptance.py::test_c05_oracle_equivalence"),
    ),
    # Lemma 1's right side differences the table of r at n + r and at n.
    Mutant(
        "lemma1-rhs-reads-row-n-minus-one", IDENTITIES,
        "lo.row(n, r + 1, n)))",
        "lo.row(n - 1, r + 1, n)))",
        ("tests/test_identities.py::test_lemma1_injected_errors",
         "tests/test_identities.py::test_lemma1_builds_each_table_from_its_own_inverse"),
    ),
    # Weighted legs: the statement's sign lives in the weight row, and a
    # leg's first index names the first n it checks.
    Mutant(
        "thm1-weight-row-without-its-sign", IDENTITIES,
        "[(-1) ** (r - 1) * m for m in build_sieve(nmax + r)]",
        "list(build_sieve(nmax + r))",
        ("tests/test_identities.py::test_theorem1_injected_errors",),
    ),
    # thm2's right-hand rows: A_{r+1}(n) takes A_r(0) p(n+1) off A_r(n+1).
    Mutant(
        "convolved-a-rows-a0-term-dropped", IDENTITIES,
        "repeat(mu_r - prev[0])",
        "repeat(mu_r)",
        ("tests/test_identities.py::test_convolved_a_rows_match_the_a_rows",
         "tests/test_identities.py::test_theorem2_sweep"),
    ),
    Mutant(
        "thm2-leg-first-one-n-late", IDENTITIES,
        "[Leg((r, 0), r, mu, r,",
        "[Leg((r, 1), r, mu, r,",
        ("tests/test_identities.py::test_theorem2_injected_error",),
    ),
    # A leg's running sums and the side it prints first: phi's form 1 sums p
    # twice, and its form 3 puts p first.
    Mutant(
        "phi-form1-one-running-sum", IDENTITIES,
        "Leg((1, 0), 1, phi, 1, p_n, 2)",
        "Leg((1, 0), 1, phi, 1, p_n, 1)",
        ("tests/test_identities.py::test_phi_identities",
         "tests/test_identities.py::test_phi_injected_errors"),
    ),
    Mutant(
        "phi-form3-series-side-first", IDENTITIES,
        "Leg((3, 0), 1, ones, 1, p_n, 1, True)",
        "Leg((3, 0), 1, ones, 1, p_n, 1)",
        ("tests/test_identities.py::test_phi_injected_errors",),
    ),
    # Counterexample indices: record_all numbers a row's checks from the last
    # coordinate of its first index, and a row starts at the n that index
    # names (here the count row starts at nmin + 1).
    Mutant(
        "record-all-start-dropped", IDENTITIES,
        "count(start)",
        "count(0)",
        ("tests/test_identities.py::test_lemma1_injected_errors",),
    ),
    Mutant(
        "cor-count-leg-one-n-short", IDENTITIES,
        'count_by_part_size(top, **spec["recipe"])[nmin:]',
        'count_by_part_size(top, **spec["recipe"])[nmin + 1 :]',
        (INDEPENDENCE, "tests/test_identities.py::test_corollary3_injected_errors"),
    ),
    # the same row at full length, one n late: each side still comes from
    # its own route, so the independence tests see it only in the unpoisoned
    # run's pass
    Mutant(
        "cor-count-leg-one-n-late", IDENTITIES,
        'count_by_part_size(top, **spec["recipe"])[nmin:]',
        'count_by_part_size(top + 1, **spec["recipe"])[nmin + 1 :]',
        (INDEPENDENCE,),
    ),
    # The partition test each corollary's enumeration counts by: cor3 keeps
    # only a repeated largest part, and cor4 also at most one 2.  The count
    # leg reads the recipes, so only the tests of the enumeration see these.
    Mutant(
        "cor3-largest-part-at-least-the-next", IDENTITIES,
        "a[-1] == a[-2],\n",
        "a[-1] >= a[-2],\n",
        ("tests/test_partitions.py::test_count_restricted_vs_differences",
         "tests/test_partitions.py::test_count_by_part_size_matches_enumeration"),
    ),
    Mutant(
        "cor4-second-two-read-at-the-first-part", IDENTITIES,
        "a[1:2] != [2]",
        "a[:1] != [2]",
        ("tests/test_partitions.py::test_count_restricted_vs_differences",
         "tests/test_partitions.py::test_count_by_part_size_matches_enumeration"),
    ),
    # The counting pass and the recipe of its rows: cor4 takes at most one 2
    # out, and a part size may repeat, so each block of the row reads one
    # already updated.
    Mutant(
        "cor4-recipe-extra-two-read-as-one", IDENTITIES,
        "shifts=((2, 0), (2, 2))",
        "shifts=((2, 0), (2, 1))",
        ("tests/test_partitions.py::test_count_by_part_size_matches_enumeration",),
    ),
    Mutant(
        "count-by-part-size-one-stale-add-per-size", PARTITIONS,
        "        for b in range(size, top + 1, size):\n"
        "            dp[b : b + size] = map(add, dp[b : b + size], dp[b - size : b])\n",
        "        dp[size:] = map(add, dp[size:], dp[: top + 1 - size])\n",
        ("tests/test_partitions.py::test_count_by_part_size_matches_enumeration",
         "tests/test_partitions.py::test_count_by_part_size_counts_every_partition_past_the_cap"),
    ),
    # Table writers: each edit changes the bytes of some tables only (a
    # column whose smallest entry is its widest, json rows in more than one
    # block), which a pinned rendering covers.
    Mutant(
        "text-width-from-column-maximum-only", CLI,
        "len(str(max(c))), len(str(min(c)))",
        "len(str(max(c)))",
        ("tests/test_cli.py::test_table_coefficient_output_is_pinned",),
    ),
    Mutant(
        "json-block-separator-dropped", CLI,
        '        sep = ", "\n',
        '        sep = ""\n',
        ("tests/test_cli.py::test_table_coefficient_output_is_pinned",),
    ),
)


def _copy(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(ROOT / name, dest / name)


def _pytest(root: Path, tests) -> tuple:
    """(status, seconds) of one pytest run of tests in the copy at root."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    start = time.perf_counter()
    try:
        done = subprocess.run(argv, cwd=root, env=env, capture_output=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start
    outcome = {0: "passed", 1: "failed"}.get(done.returncode, f"pytest exit {done.returncode}")
    return outcome, time.perf_counter() - start


def run(mutant: Mutant) -> dict:
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        root = Path(tmp)
        _copy(root)
        path = root / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            raise ValueError(f"{mutant.name}: old text found {text.count(mutant.old)} times in {mutant.file}")
        path.write_text(text.replace(mutant.old, mutant.new))
        outcome, seconds = _pytest(root, mutant.tests)
    status = {"failed": "killed", "passed": "survived"}.get(outcome, outcome)
    return {"name": mutant.name, "file": mutant.file, "tests": list(mutant.tests),
            "status": status, "seconds": round(seconds, 1)}


def main() -> int:
    tests = list(dict.fromkeys(t for m in CATALOGUE for t in m.tests))
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        _copy(Path(tmp))
        outcome, seconds = _pytest(Path(tmp), tests)
    print(f"unmutated: {outcome} in {seconds:.1f} s", flush=True)
    if outcome != "passed":
        return 2

    results = []
    for mutant in CATALOGUE:
        results.append(run(mutant))
        print(f"{mutant.name}: {results[-1]['status']} in {results[-1]['seconds']} s", flush=True)
    record = {"python": sys.version.split()[0], "mutants": results}
    (ROOT / "MUTANTS.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all(r["status"] == "killed" for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
