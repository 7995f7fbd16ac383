"""Exact invariants of congruence subgroups of SL2 over concrete Dedekind
domains: cusp amplitudes, quasi-amplitudes, level, quasi-level, order
ideal, and congruence screens for the modular group and SL2(k[t]).

The package root holds only the exception types; the API lives in its
modules (domains, quotients, matgroups, subgroups, analyzer, modular,
suites), each imported on its own."""

from .domains import CapExceeded, InternalCheckError, ParseError

__version__ = "0.1.0"
