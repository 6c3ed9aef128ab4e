"""The digit kernels, pure-Python sweeps over digit lists, and ``backend_name``.

Digit lists are most-significant-first. Zeroless digits lie in [1, k],
with-zero digits in [0, k-1]. Every function returns a fresh list; inputs
are never mutated. The other modules call them as ``_backend.<name>``;
``horner_value`` is ``radix.value``.
"""

from zeroless.radix import value as horner_value  # noqa: F401


def add_digits(a, b, k):
    """Zeroless addition sweep; absent positions contribute nothing."""
    la = len(a)
    lb = len(b)
    n = la if la > lb else lb
    out = [0] * n
    carry = 0
    for i in range(1, n + 1):
        s = carry
        if i <= la:
            s += a[la - i]
        if i <= lb:
            s += b[lb - i]
        # unique digit in [1, k] congruent to s; carry stays in {0, 1, 2}
        # for k >= 2 (unary accumulates larger carries)
        carry = (s - 1) // k
        out[n - i] = s - carry * k
    if carry:
        if k == 1:
            out[:0] = [1] * carry
        else:
            out.insert(0, carry)  # carry <= 2 <= k
    return out


def scale_digits(a, d, k):
    """Multiply a zeroless numeral by the single digit d in [1, k]."""
    n = len(a)
    out = [0] * n
    carry = 0
    for i in range(n - 1, -1, -1):
        p = a[i] * d + carry
        digit = (p - 1) % k + 1
        carry = (p - digit) // k
        out[i] = digit
    if carry:
        out.insert(0, carry)  # bounded by k, so a single digit suffices
    return out


def successor_digits(a, k):
    if k == 1:
        return [1] * (len(a) + 1)
    out = list(a)
    for i in range(len(out) - 1, -1, -1):
        if out[i] < k:
            out[i] += 1
            return out
        out[i] = 1
    out.insert(0, 1)
    return out


def predecessor_digits(a, k):
    if not a:
        raise ValueError("zero has no predecessor")
    if k == 1:
        return [1] * (len(a) - 1)
    out = list(a)
    for i in range(len(out) - 1, -1, -1):
        if out[i] > 1:
            out[i] -= 1
            return out
        out[i] = k
    del out[0]  # borrow escaped: the leftmost position vanishes
    return out


def multiply_by_base_digits(a, k):
    if not a:
        return []
    out = predecessor_digits(a, k)
    out.append(k)
    return out


def multiply_digits(x, y, k):
    """Schoolbook product via left-to-right accumulation over y's digits."""
    if not x or not y:
        return []
    acc = []
    for d in y:
        acc = multiply_by_base_digits(acc, k)
        acc = add_digits(acc, scale_digits(x, d, k), k)
    return acc


def lex_to_zero_digits(a, k):
    """Carry sweep turning zeroless digits into canonical with-zero digits."""
    n = len(a)
    out = [0] * n
    carry = 0
    for i in range(n - 1, -1, -1):
        v = a[i] + carry
        if v >= k:
            out[i] = v - k
            carry = 1
        else:
            out[i] = v
            carry = 0
    if carry:
        out.insert(0, 1)
    return out if out else [0]


def zero_to_lex_digits(a, k):
    """Borrow sweep turning canonical with-zero digits into zeroless digits."""
    out = []
    borrow = 0
    for i in range(len(a) - 1, 0, -1):
        v = a[i] - borrow
        if v <= 0:
            out.append(v + k)
            borrow = 1
        else:
            out.append(v)
            borrow = 0
    v = a[0] - borrow
    if v > 0:
        out.append(v)
    # v == 0 means the leading position emptied out and is dropped
    out.reverse()
    return out


def backend_name():
    """Name of the kernel implementation; always "pure" (Python)."""
    return "pure"
