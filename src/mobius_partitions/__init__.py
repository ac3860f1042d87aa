"""Partition statistics, Mobius/totient sieves, truncated q-series, and
mechanical verification of the identities relating them."""

from mobius_partitions.arith import MultiplicativeTable, build_sieve, mobius, totient
from mobius_partitions.series import TruncatedSeries, lambert_sum, pochhammer, reciprocal
from mobius_partitions.partitions import (
    PartitionTable,
    SrTable,
    count_restricted,
    enumerate_partitions,
    partition_table_gf,
    partition_table_pentagonal,
    sr_table_enum,
    sr_table_gf,
    sr_tables_enum,
    weighted_sr_series,
)
from mobius_partitions.identities import (
    VerificationReport,
    build_a,
    build_b,
    verify_b_symmetry,
    verify_corollary,
    verify_lambert,
    verify_lemma1,
    verify_phi_identities,
    verify_prime_corollary,
    verify_sr_oracle,
    verify_theorem1,
    verify_theorem2,
    verify_weighted_corollary,
)

__version__ = "0.1.0"

__all__ = [
    "MultiplicativeTable",
    "build_sieve",
    "mobius",
    "totient",
    "TruncatedSeries",
    "lambert_sum",
    "pochhammer",
    "reciprocal",
    "PartitionTable",
    "SrTable",
    "count_restricted",
    "enumerate_partitions",
    "partition_table_gf",
    "partition_table_pentagonal",
    "sr_table_enum",
    "sr_table_gf",
    "sr_tables_enum",
    "weighted_sr_series",
    "VerificationReport",
    "build_a",
    "build_b",
    "verify_b_symmetry",
    "verify_corollary",
    "verify_lambert",
    "verify_lemma1",
    "verify_phi_identities",
    "verify_prime_corollary",
    "verify_sr_oracle",
    "verify_theorem1",
    "verify_theorem2",
    "verify_weighted_corollary",
]
