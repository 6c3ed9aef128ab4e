import itertools
import os
import sys
from pathlib import Path

import pytest

# genome-scale ranks have far more digits than the default int/str limit
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)


def shortlex_tuples(k, max_len):
    """Brute-force shortlex enumeration of digit tuples, starting at ()."""
    yield ()
    for length in range(1, max_len + 1):
        yield from itertools.product(range(1, k + 1), repeat=length)


@pytest.fixture
def acgt():
    from zeroless import Alphabet

    return Alphabet.named("acgt")


@pytest.fixture
def decimal_x():
    from zeroless import Alphabet

    return Alphabet.named("decimal-x")


@pytest.fixture
def limited_child():
    """(argv, env) of a Python child that limits its own address space to 256 MB, then runs code.

    The limit acts on that process only; env puts this package on its
    PYTHONPATH. By default the code runs the CLI on the given args.
    """
    import zeroless

    env = dict(os.environ, PYTHONPATH=str(Path(zeroless.__file__).parents[1]))

    def child(*args, code="from zeroless import cli; sys.exit(cli.main(sys.argv[1:]))"):
        limit = "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20)); "
        return [sys.executable, "-c", limit + code, *args], env

    return child
