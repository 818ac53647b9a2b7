"""Monogenity of pure prime-power number fields, decided exactly.

The package analyzes the fields generated by a root of x**(p**r) - m
(m squarefree, |m| >= 2) through first-order Newton polygon machinery:
phi-adic expansion, lower convex envelopes with exact rational slopes,
residual polynomials over residue fields, index lower bounds, and
splitting shapes.  A classifier turns those invariants into one of
MONOGENIC_ZALPHA, NOT_MONOGENIC, or UNDETERMINED, always with a
machine-checkable certificate.
"""

__version__ = "0.1.0"

import sys

# each public name by the module that defines it, the one list that
# __all__, __getattr__ and __dir__ read; a module loads when one of its
# names is first read (PEP 562), so importing the package alone loads none
_HOMES = {
    name: module
    for module, names in (
        ("classify", "Certificate MonogenityVerdict PrimeAnalysis Provenance Status "
                     "classify pure_prime_analysis"),
        ("errors", "InvariantError MonogenityError OracleDisagreement ValidationError"),
        ("intarith", "INFINITY binomial_valuation count_monic_irreducibles is_prime "
                     "is_squarefree valuation"),
        ("ore", "PhiExpansion analyze_prime dedekind_divides_index lower_convex_hull "
                "phi_expansion phi_report residual_polynomial valued_points"),
        ("polygon", "NOT_REGULAR IndexBound NewtonPolygon PhiReport Side SplittingShape "
                    "ValuedPoint index_lower_bound phi_index principal_part splitting_shape"),
        ("zpoly", "PureFieldParams candidate_index_primes discriminant_valuation "
                  "pure_polynomial"),
    )
    for name in names.split()
}

__all__ = ["__version__", *_HOMES]


def __getattr__(name):
    module = _HOMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")
    return getattr(sys.modules[f"{__name__}.{module}"], name)


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(type(sys)):
    # The import system binds each submodule on its package as it loads,
    # and the submodule classify would then hide the function classify,
    # which the package exported before it loaded lazily.
    def __setattr__(self, name, value):
        if name != "classify" or not isinstance(value, type(sys)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
