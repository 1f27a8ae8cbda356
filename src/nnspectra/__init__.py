"""nnspectra: nonnegative matrices with prescribed spectra and Jordan structure.

Exact-rational constructions (constant-row-sum normalization, rank-one
Perron shifts, eigenvalue bonding, parametric degree-5 realizations) with
certificates checked over the rationals.
"""

from .core import (
    FloatMatrix,
    JordanSpec,
    Rational,
    RationalMatrix,
    Spectrum,
    char_poly,
    exact_rank,
    rat,
    to_float,
)
from .jcfcert import (
    RealizationCertificate,
    enumerate_jordan_forms,
    jordan_spec,
    verify_certificate,
    weyr_sequence,
)
from .structure import is_irreducible, perron_data
from .rowsum import lemma1_lift, lemma2_coupling, to_constant_row_sums

__all__ = [
    "FloatMatrix",
    "JordanSpec",
    "Rational",
    "RationalMatrix",
    "RealizationCertificate",
    "Spectrum",
    "char_poly",
    "enumerate_jordan_forms",
    "exact_rank",
    "is_irreducible",
    "jordan_spec",
    "lemma1_lift",
    "lemma2_coupling",
    "perron_data",
    "rat",
    "to_constant_row_sums",
    "to_float",
    "verify_certificate",
    "weyr_sequence",
]

__version__ = "0.1.0"
