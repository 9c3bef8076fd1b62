"""Exact invariants of numerical semigroups, their named families and
constructions, and a brute-force verification harness for the closed forms."""

from .core import (
    Extremality,
    NumericalSemigroup,
    PFProfile,
    SemigroupError,
    naturals,
)
from .families import (
    backelin_pf_closed,
    backelin_semigroup,
    bresinsky_pf_closed,
    bresinsky_semigroup,
    gas_maximal_predicate,
    gas_minimal_predicate,
    gas_pf_closed,
    gas_semigroup,
    staircase_min_type_family,
    uniform_type_family,
)
from .constructions import (
    DuplicationSpec,
    GluingSpec,
    IdealKind,
    MinClassification,
    SemigroupIdeal,
    Verdict,
    duplicate,
    duplication_max_self,
    duplication_max_star,
    duplication_min_classifier,
    duplication_pf,
    glue,
    gluing_maximal_sufficient,
    gluing_pf,
    ideal_full,
    ideal_star,
    nice_extension,
    nice_extension_maximal_iff,
)

__version__ = "0.1.0"

__all__ = [
    "DuplicationSpec",
    "Extremality",
    "GluingSpec",
    "IdealKind",
    "MinClassification",
    "NumericalSemigroup",
    "PFProfile",
    "SemigroupError",
    "SemigroupIdeal",
    "Verdict",
    "VerificationReport",
    "backelin_pf_closed",
    "backelin_semigroup",
    "bresinsky_pf_closed",
    "bresinsky_semigroup",
    "duplicate",
    "duplication_max_self",
    "duplication_max_star",
    "duplication_min_classifier",
    "duplication_pf",
    "gas_maximal_predicate",
    "gas_minimal_predicate",
    "gas_pf_closed",
    "gas_semigroup",
    "glue",
    "gluing_maximal_sufficient",
    "gluing_pf",
    "ideal_full",
    "ideal_star",
    "naive_closure",
    "naive_pf",
    "naive_reduced_type",
    "naturals",
    "nice_extension",
    "nice_extension_maximal_iff",
    "staircase_min_type_family",
    "uniform_type_family",
    "verify_claim",
]

# The verify harness (nsg.oracle) and its definitional engine (nsg.naive) load
# on first use of one of their names, so that an `nsg` call that does not
# verify never compiles or imports them; an engine name loads the engine only.
_LAZY_NAMES = {
    "VerificationReport": "oracle",
    "naive_closure": "naive",
    "naive_pf": "naive",
    "naive_reduced_type": "naive",
    "verify_claim": "oracle",
}


def __getattr__(name: str):
    module = _LAZY_NAMES.get(name)
    if module is not None:
        from importlib import import_module

        return getattr(import_module(f"{__name__}.{module}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
