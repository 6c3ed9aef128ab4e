"""Zeroless positional numerals: shortlex ranking, arithmetic, conversion.

Numbers are written with digits 1..k and no zero; the empty string is
zero. The package ranks and unranks such strings, does arithmetic on
them directly, converts to and from ordinary with-zero notation, and
treats DNA sequences as base-4 zeroless numerals.
"""

from zeroless._backend import backend_name
from zeroless.arithmetic import (
    LatticeTrace,
    add,
    lattice_multiply,
    multiply,
    multiply_by_base,
    scale,
)
from zeroless.conversion import delta, omega_zero, theta_lex_to_zero, theta_zero_to_lex
from zeroless.core import (
    Alphabet,
    LexNumeral,
    ZeroNumeral,
    default_alphabet,
    format_lex,
    format_zero,
    lex_length,
    maxlex,
    minlex,
    omega,
    parse_lex,
    parse_zero,
    predecessor,
    rank_within_length,
    shortlex_compare,
    sigma,
    successor,
)
from zeroless.genome import (
    FastaRecord,
    rank_sequence,
    read_fasta,
    sequence_order,
    unrank_sequence,
)
from zeroless.tables import OpTable, build_addition_table, build_multiplication_table

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "FastaRecord",
    "LatticeTrace",
    "LexNumeral",
    "OpTable",
    "ZeroNumeral",
    "add",
    "backend_name",
    "build_addition_table",
    "build_multiplication_table",
    "default_alphabet",
    "delta",
    "format_lex",
    "format_zero",
    "lattice_multiply",
    "lex_length",
    "maxlex",
    "minlex",
    "multiply",
    "multiply_by_base",
    "omega",
    "omega_zero",
    "parse_lex",
    "parse_zero",
    "predecessor",
    "rank_sequence",
    "rank_within_length",
    "read_fasta",
    "scale",
    "sequence_order",
    "shortlex_compare",
    "sigma",
    "successor",
    "theta_lex_to_zero",
    "theta_zero_to_lex",
    "unrank_sequence",
]
