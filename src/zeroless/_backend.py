"""The digit kernels, under the names the other modules call them by.

The kernels are defined in ``_kernels_py``; this module only re-exports
them.
"""

from zeroless._kernels_py import (  # noqa: F401
    add_digits,
    horner_value,
    lex_to_zero_digits,
    multiply_by_base_digits,
    multiply_digits,
    predecessor_digits,
    scale_digits,
    successor_digits,
    zero_to_lex_digits,
)


def backend_name():
    """Name of the kernel implementation; always "pure" (Python)."""
    return "pure"
