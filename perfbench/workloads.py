"""The benchmark's workloads: a seed turns into a fixed list of CLI calls.

Each workload is a fixed list of `mobius-partitions` invocations.  The seed
only shuffles the call order and picks sub-parameters that leave the cost
class unchanged (the alpha prime, the export formats, the r of the S-table
export), so every seed of one workload does the same amount of work.

Every call carries what a correct answer must look like: for `verify`, the
echoed parameters and the number of checks the sweep has to make; for
`table`, the kind, parameters and format, which `checks.py` compares against
an independent route.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("gf-large-n", "enum-oracle", "many-r-export")

# Sizes per workload.  "full" is what the benchmark measures; "smoke" is a
# tiny pass of the same calls for the benchmark's own tests.
SIZES = {
    "gf-large-n": {
        "full": {"n": 800},
        "smoke": {"n": 30},
    },
    "enum-oracle": {
        "full": {"oracle_n": 36, "oracle_rmax": 6, "cor_n": 42, "weighted_n": 30},
        "smoke": {"oracle_n": 12, "oracle_rmax": 3, "cor_n": 12, "weighted_n": 10},
    },
    "many-r-export": {
        "full": {"thm2_n": 400, "thm2_rmax": 12, "lemma_n": 120, "lemma_rmax": 8,
                 "lambert_n": 200_000, "bsym_rmax": 100, "sr_n": 250, "p_n": 2500,
                 "a_rmax": 40, "b_rmax": 60},
        "smoke": {"thm2_n": 20, "thm2_rmax": 4, "lemma_n": 12, "lemma_rmax": 3,
                  "lambert_n": 200, "bsym_rmax": 8, "sr_n": 12, "p_n": 40,
                  "a_rmax": 6, "b_rmax": 6},
    },
}

ALPHA_PRIMES = (2, 3, 5, 7)

# Corollary sweeps stay within the enumeration cap (45), so that every n is
# checked by the oracle and the expected check count does not depend on it.
_COR_NMIN = {"cor2": 0, "cor3": 3, "cor4": 6}


@dataclass(frozen=True)
class Call:
    """One CLI invocation and what its output must show."""

    command: str  # "verify" or "table"
    target: str  # identity id or table kind
    params: dict  # the explicit flags, as the program must echo them
    fmt: str

    @property
    def argv(self) -> list:
        argv = [self.command, self.target]
        for key, value in self.params.items():
            argv += [f"--{key}", str(value)]
        return argv + ["--format", self.fmt]


def expected_checks(identity: str, params: dict) -> int:
    """The number of checks a sweep with these parameters must report."""
    n = params.get("nmax")
    if identity in ("thm1", "weighted", "prime-alpha", "lambert"):
        return n + 1
    if identity == "thm2":
        return params["rmax"] * (n + 1)
    if identity == "phi":
        return 3 * (n + 1)
    if identity in _COR_NMIN:
        # one difference-vs-Mobius check and one oracle check per n
        return 2 * (n - _COR_NMIN[identity] + 1)
    if identity == "b-symmetry":
        return sum(r * (r - 1) // 2 + 1 for r in range(2, params["rmax"] + 1))
    if identity == "lemma1":
        return sum((n - r) * (n - r + 1) // 2 for r in range(1, params["rmax"] + 1))
    if identity == "oracle-sr":
        return sum((n - r + 1) * (n - r + 2) // 2 for r in range(1, params["rmax"] + 1))
    raise ValueError(f"no check count known for {identity!r}")


def build_calls(workload: str, seed: int, size: str = "full") -> list:
    """The workload's calls for this seed, in the order they run."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    s = SIZES[workload][size]

    def verify(identity, **params):
        return Call("verify", identity, params, "json")

    # Why each workload exists is recorded in BENCHMARK.json.
    if workload == "gf-large-n":
        n, alpha = s["n"], rng.choice(ALPHA_PRIMES)
        calls = [
            verify("thm1", r=1, nmax=n),
            verify("thm1", r=2, nmax=n),
            verify("phi", nmax=n),
        ] + [
            verify("prime-alpha", alpha=alpha, which=which, nmax=n)
            for which in ("i", "ii", "alternate-form")
        ]
    elif workload == "enum-oracle":
        calls = [verify("oracle-sr", nmax=s["oracle_n"], rmax=s["oracle_rmax"])]
        calls += [verify(c, nmax=s["cor_n"]) for c in ("cor2", "cor3", "cor4")]
        calls += [verify("weighted", r=r, nmax=s["weighted_n"]) for r in (1, 2)]
    else:
        calls = [
            verify("thm2", rmax=s["thm2_rmax"], nmax=s["thm2_n"]),
            verify("lemma1", rmax=s["lemma_rmax"], nmax=s["lemma_n"]),
            verify("lambert", nmax=s["lambert_n"]),
            verify("b-symmetry", rmax=s["bsym_rmax"]),
        ]
        exports = [
            ("sr", {"r": rng.choice((1, 2, 3)), "nmax": s["sr_n"]}),
            ("p", {"nmax": s["p_n"]}),
            ("a", {"rmax": s["a_rmax"]}),
            ("b", {"rmax": s["b_rmax"]}),
        ]
        # two csv and two json exports, the seed decides which are which
        formats = ["csv", "csv", "json", "json"]
        rng.shuffle(formats)
        calls += [Call("table", kind, params, fmt) for (kind, params), fmt in zip(exports, formats)]
    rng.shuffle(calls)
    return calls
