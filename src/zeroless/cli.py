"""Command line front end: ranks, arithmetic, conversion, tables, DNA.

Every subcommand is a thin shell over the library; results go to stdout
with one final newline. Exit codes: 0 on success, 2 on usage errors,
1 on domain errors and unreadable input (message on stderr) and when the
reader of stdout goes away early (no message).
"""

from __future__ import annotations

import argparse
import os
import sys

from zeroless import __version__, arithmetic, conversion, core, genome, tables

_BATCH = 1024  # enumerate and rank write this many lines at a time


def _natural(text: str) -> int:
    """A number written in ASCII digits alone: no sign, space or "_"."""
    if text.isascii() and text.isdigit():
        return int(text)
    if text[:1] == "-" and text[1:].isascii() and text[1:].isdigit():
        raise argparse.ArgumentTypeError(f"{core._echo(text)} is negative")
    raise argparse.ArgumentTypeError(f"{core._echo(text)} is not a decimal number")


def _integer(text: str) -> int:
    """``int(text)``; else argparse's own "invalid int value", the text cut by ``core._echo``."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {core._echo(text)}") from None


def _generator_list(text: str) -> tuple:
    """Numbers in ASCII digits, split by commas; ASCII spaces may pad an item."""
    parts = [part.strip(" ") for part in text.split(",")]
    if all(part.isascii() and part.isdigit() for part in parts):
        return tuple(map(int, parts))
    raise argparse.ArgumentTypeError(f"{core._echo(text)} is not a comma-separated list of digits")


def _alphabet_for(args):
    """Resolve (base, alphabet) from --base/--alphabet and the environment."""
    choice = args.alphabet  # an empty --alphabet is an error, an empty variable unset
    if choice is None:
        choice = os.environ.get("ZEROLESS_ALPHABET") or None
    base = args.base
    if choice is not None:
        if choice in core.NAMED_ALPHABETS:
            alpha = core.Alphabet.named(choice, base)
            if alpha is None:  # bracket notation carries no symbols
                if base is None:
                    raise ValueError("alphabet 'bracket' needs an explicit --base")
                return base, None
            return alpha.base, alpha
        alpha = core.Alphabet.from_string(choice)
        if base is not None and base != alpha.base:
            raise ValueError(f"--base {core._echo_int(base)} disagrees with an alphabet of {alpha.base} symbols")
        return alpha.base, alpha
    if base is None:
        base = 10
    return base, core.default_alphabet(base)


def _cmd_encode(args) -> int:
    base, alpha = _alphabet_for(args)
    print(core.format_lex(core.sigma(base, args.value), alpha))
    return 0


def _cmd_decode(args) -> int:
    base, alpha = _alphabet_for(args)
    print(core.omega(core.parse_lex(args.numeral, base, alpha)))
    return 0


def _cmd_succ(args) -> int:
    base, alpha = _alphabet_for(args)
    print(core.format_lex(core.successor(core.parse_lex(args.numeral, base, alpha)), alpha))
    return 0


def _cmd_pred(args) -> int:
    base, alpha = _alphabet_for(args)
    print(core.format_lex(core.predecessor(core.parse_lex(args.numeral, base, alpha)), alpha))
    return 0


def _cmd_add(args) -> int:
    base, alpha = _alphabet_for(args)
    total = arithmetic.add(core.parse_lex(args.x, base, alpha), core.parse_lex(args.y, base, alpha))
    print(core.format_lex(total, alpha))
    return 0


def _print_trace(trace):
    for step in trace.steps:
        print(step)
    print(f"with-zero: {core.format_zero(trace.intermediate)}")


def _cmd_mul(args) -> int:
    base, alpha = _alphabet_for(args)
    x = core.parse_lex(args.x, base, alpha)
    y = core.parse_lex(args.y, base, alpha)
    if args.trace:
        product, trace = arithmetic.lattice_multiply(x, y, args.generators, trace=True)
        _print_trace(trace)
    elif args.lattice or args.generators is not None:
        product = arithmetic.lattice_multiply(x, y, args.generators)
    else:
        product = arithmetic.multiply(x, y)
    print(core.format_lex(product, alpha))
    return 0


def _cmd_convert(args) -> int:
    base, alpha = _alphabet_for(args)
    if args.to == "zero":
        z = conversion.theta_lex_to_zero(core.parse_lex(args.numeral, base, alpha))
        print(core.format_zero(z))
    else:
        z = core.parse_zero(args.numeral, base)
        print(core.format_lex(conversion.theta_zero_to_lex(z), alpha))
    return 0


def _cmd_table(args) -> int:
    base, alpha = _alphabet_for(args)
    kind = "addition" if args.op == "add" else "multiplication"
    sys.stdout.writelines((tables.stream_rows if args.machine else tables.stream_grid)(kind, base, alpha))
    return 0


def _cmd_enumerate(args) -> int:
    base, alpha = _alphabet_for(args)
    if not args.count:
        return 0
    numeral = core.sigma(base, 0)
    batch = []
    for n in range(1, args.count + 1):
        numeral = core.successor(numeral)
        batch.append(core.format_lex(numeral, alpha))
        if len(batch) == _BATCH or n == args.count:
            sys.stdout.write("\n".join(batch) + "\n")
            batch.clear()
    return 0


def _cmd_rank(args) -> int:
    if args.fasta == "-":
        # the bytes under a text stdin, so that they decode as a file's do
        source = getattr(sys.stdin, "buffer", sys.stdin)
    else:
        source = args.fasta
    rank = genome.rank_sequence
    lines = []
    try:
        for rec in genome.read_fasta(source, policy=args.policy):
            lines.append(f"{rec.id}\t{rank(rec.sequence)}\n")
            if len(lines) == _BATCH:
                sys.stdout.write("".join(lines))
                lines.clear()
    finally:  # the records before a bad one are still printed
        sys.stdout.write("".join(lines))
    return 0


def _cmd_unrank(args) -> int:
    print(genome.unrank_sequence(args.rank))
    return 0


def _add_numeral_options(sub):
    sub.add_argument("--base", "-b", type=_integer, default=None, help="numeral base k")
    sub.add_argument(
        "--alphabet",
        "-a",
        default=None,
        help="digit symbols: a literal string, or one of "
        + ", ".join(core.NAMED_ALPHABETS)
        + " (default: 1..9,X up to base 10, brackets above; env ZEROLESS_ALPHABET)",
    )


def _numerals(*names):
    """Arguments of a command that reads the named numerals."""

    def add(p):
        _add_numeral_options(p)
        for name in names:
            p.add_argument(name)

    return add


def _encode_args(p):
    _add_numeral_options(p)
    p.add_argument("value", type=_natural, help="decimal number of any size")


def _mul_args(p):
    _numerals("x", "y")(p)
    p.add_argument("--lattice", action="store_true", help="use column-lattice multiplication")
    p.add_argument(
        "--generators",
        type=_generator_list,
        default=None,
        help="comma-separated digit values for splitting lattice cells (implies --lattice)",
    )
    p.add_argument(
        "--trace",
        action="store_true",
        help="show lattice cells and column sums (implies --lattice)",
    )


def _convert_args(p):
    _add_numeral_options(p)
    p.add_argument("--to", choices=("zero", "lex"), required=True, help="target notation")
    p.add_argument("numeral")


def _table_args(p):
    _add_numeral_options(p)
    p.add_argument("op", choices=("add", "mul"))
    p.add_argument("--machine", action="store_true", help="one tab-separated a, b, result line per entry")


def _enumerate_args(p):
    _add_numeral_options(p)
    p.add_argument("--count", type=_natural, required=True, help="how many numerals to print")


def _rank_args(p):
    p.add_argument("--fasta", default="-", help="FASTA file, or - for stdin (default)")
    p.add_argument(
        "--policy",
        choices=("reject", "skip"),
        default="reject",
        help="what to do with records holding letters outside ACGT",
    )


def _unrank_args(p):
    p.add_argument("rank", type=_natural, help="decimal rank of any size")


# name: (help, arguments, run), in the order the help lists them
_COMMANDS = {
    "encode": ("write a number as a zeroless numeral", _encode_args, _cmd_encode),
    "decode": ("read a zeroless numeral back to a number", _numerals("numeral"), _cmd_decode),
    "succ": ("successor of a zeroless numeral", _numerals("numeral"), _cmd_succ),
    "pred": ("predecessor of a zeroless numeral", _numerals("numeral"), _cmd_pred),
    "add": ("add two zeroless numerals", _numerals("x", "y"), _cmd_add),
    "mul": ("multiply two zeroless numerals", _mul_args, _cmd_mul),
    "convert": ("rewrite a numeral in the other notation, same value", _convert_args, _cmd_convert),
    "table": ("print a single-digit operation table", _table_args, _cmd_table),
    "enumerate": ("list numerals in shortlex order, starting at 1", _enumerate_args, _cmd_enumerate),
    "rank": ("rank DNA sequences from a FASTA file", _rank_args, _cmd_rank),
    "unrank": ("DNA sequence of a given rank", _unrank_args, _cmd_unrank),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zeroless",
        description="Zeroless positional numerals: rank, unrank, arithmetic, conversion.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, add_arguments, run) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        add_arguments(p)
        p.set_defaults(run=run)
    return parser


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = _build_parser().parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()  # a closed pipe shows up here, not at exit
        return code
    except BrokenPipeError:
        # the reader went away (`zeroless enumerate ... | head`): point
        # stdout at devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:  # ValueError covers UnicodeDecodeError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
