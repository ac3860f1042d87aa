"""Partition statistics, Mobius/totient sieves, truncated q-series, and
mechanical verification of the identities relating them."""

__version__ = "0.1.0"
