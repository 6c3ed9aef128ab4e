"""Value-preserving conversion between zeroless and with-zero numerals.

``omega_zero`` and ``delta`` take the routes of ``omega`` and ``sigma``,
through ``radix``. The theta maps are single digit sweeps. Going to
with-zero, every digit k becomes 0 with a carry into the next position;
going to zeroless, every 0 borrows from the next position and becomes
k, and a leading digit that empties out is dropped. Both directions
preserve the value exactly and are mutually inverse on canonical forms.
"""

from __future__ import annotations

from zeroless import _backend, radix
from zeroless.core import LexNumeral, ZeroNumeral, _echo_int


def omega_zero(z: ZeroNumeral) -> int:
    """Value of a with-zero numeral (ordinary radix evaluation)."""
    return radix.number(z.digits, z.base, 0)


def delta(k: int, n: int) -> ZeroNumeral:
    """Canonical with-zero numeral of a value n >= 0."""
    if n < 0:
        raise ValueError(f"value must be >= 0, got {_echo_int(n)}")
    if k < 2:
        raise ValueError(f"with-zero base must be >= 2, got {_echo_int(k)}")
    return ZeroNumeral(k, (n,) if n < k else radix.digits(n, k, 0))


def theta_lex_to_zero(a: LexNumeral) -> ZeroNumeral:
    """With-zero numeral of the same value as a zeroless numeral."""
    if a.base < 2:
        raise ValueError("with-zero notation needs a base >= 2")
    return ZeroNumeral(a.base, _backend.lex_to_zero_digits(a.digits, a.base))


def theta_zero_to_lex(z: ZeroNumeral) -> LexNumeral:
    """Zeroless numeral of the same value as a with-zero numeral."""
    return LexNumeral(z.base, _backend.zero_to_lex_digits(z.digits, z.base))
