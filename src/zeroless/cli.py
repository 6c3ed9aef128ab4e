"""Command line front end: ranks, arithmetic, conversion, tables, DNA.

Every subcommand is a thin shell over the library that yields its
output as newline-terminated lines; ``_write`` alone writes them to
stdout, in batches of about 64 KiB. Exit codes: 0 on success, 2 on usage
errors, 1 on domain errors, unreadable input and exhausted memory (the
lines made before the error are written, then one message on stderr)
and when the reader of stdout goes away early (no message).

Each command's arguments are declared once, in ``_COMMANDS``. A plain
argv (see ``_match``) is read from that table directly; any other, and
every request for help, goes to the argparse parser built from it.

``run()`` is the entry of a zeroless process, for ``python -m
zeroless.cli`` and the installed ``zeroless`` script alike: it freezes
the import-time heap, so that the full collections of interpreter exit
skip it, and exits with ``main()``'s code. ``main(argv)`` is the entry
in process, for tests and library callers; it leaves the collector as
it finds it.
"""

import gc
import os
import sys
import types

from zeroless import __version__, arithmetic, conversion, core, genome, tables

# characters _write gathers per write: not lines, as one `table --machine` item is a row of up to 2**18 lines
_BATCH = 1 << 16


def _refusal(message: str):
    """argparse's error for a value its type refuses; argparse is imported on this path alone."""
    import argparse

    return argparse.ArgumentTypeError(message)


def _natural(text: str) -> int:
    """A number written in ASCII digits alone: no sign, space or "_"."""
    if text.isascii() and text.isdigit():
        return int(text)
    if text[:1] == "-" and text[1:].isascii() and text[1:].isdigit():
        raise _refusal(f"{core._echo(text)} is negative")
    raise _refusal(f"{core._echo(text)} is not a decimal number")


def _integer(text: str) -> int:
    """A number in ASCII digits with an optional leading "-"; else argparse's
    own "invalid int value", the text cut by ``core._echo``."""
    digits = text[1:] if text[:1] == "-" else text
    if digits.isascii() and digits.isdigit():
        return int(text)
    raise _refusal(f"invalid int value: {core._echo(text)}")


def _generator_list(text: str) -> tuple:
    """Numbers in ASCII digits, split by commas; ASCII spaces may pad an item."""
    parts = [part.strip(" ") for part in text.split(",")]
    if all(part.isascii() and part.isdigit() for part in parts):
        return tuple(map(int, parts))
    raise _refusal(f"{core._echo(text)} is not a comma-separated list of digits")


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


def _cmd_encode(args):
    base, alpha = _alphabet_for(args)
    yield core.format_lex(core.sigma(base, args.value), alpha) + "\n"


def _cmd_decode(args):
    base, alpha = _alphabet_for(args)
    yield f"{core.omega(core.parse_lex(args.numeral, base, alpha))}\n"


def _cmd_succ(args):
    base, alpha = _alphabet_for(args)
    yield core.format_lex(core.successor(core.parse_lex(args.numeral, base, alpha)), alpha) + "\n"


def _cmd_pred(args):
    base, alpha = _alphabet_for(args)
    yield core.format_lex(core.predecessor(core.parse_lex(args.numeral, base, alpha)), alpha) + "\n"


def _cmd_add(args):
    base, alpha = _alphabet_for(args)
    total = arithmetic.add(core.parse_lex(args.x, base, alpha), core.parse_lex(args.y, base, alpha))
    yield core.format_lex(total, alpha) + "\n"


def _cmd_mul(args):
    base, alpha = _alphabet_for(args)
    x = core.parse_lex(args.x, base, alpha)
    y = core.parse_lex(args.y, base, alpha)
    if args.trace:
        yield from map("{}\n".format, arithmetic.lattice_steps(x, y, args.generators))
        product = arithmetic.multiply(x, y)
        yield f"with-zero: {core.format_zero(conversion.theta_lex_to_zero(product))}\n"
    elif args.generators is not None:
        product = arithmetic.lattice_multiply(x, y, args.generators)
    else:
        product = arithmetic.multiply(x, y)
    yield core.format_lex(product, alpha) + "\n"


def _cmd_convert(args):
    base, alpha = _alphabet_for(args)
    if args.to == "zero":
        yield core.format_zero(conversion.theta_lex_to_zero(core.parse_lex(args.numeral, base, alpha))) + "\n"
    else:
        z = core.parse_zero(args.numeral, base)
        yield core.format_lex(conversion.theta_zero_to_lex(z), alpha) + "\n"


def _cmd_table(args):
    base, alpha = _alphabet_for(args)
    table = tables.OpTable("addition" if args.op == "add" else "multiplication", base)
    yield from (tables.table_rows if args.machine else tables.stream_grid)(table, alpha)


def _cmd_enumerate(args):
    base, alpha = _alphabet_for(args)
    numeral = core.sigma(base, 0)
    for _ in range(args.count):
        numeral = core.successor(numeral)
        yield core.format_lex(numeral, alpha) + "\n"


def _cmd_rank(args):
    # "-": the bytes under a text stdin, so that they decode as a file's do
    source = getattr(sys.stdin, "buffer", sys.stdin) if args.fasta == "-" else args.fasta
    rank = genome.rank_sequence
    for rec in genome.read_fasta(source, policy=args.policy):
        yield f"{rec.id}\t{rank(rec.sequence)}\n"


def _cmd_unrank(args):
    yield genome.unrank_sequence(args.rank) + "\n"


def _write(lines):
    """Write newline-terminated lines to stdout, joined once about _BATCH
    characters are pending; the lines made before an error are written too."""
    pending, size = [], 0
    try:
        for line in lines:
            pending.append(line)
            size += len(line)
            if size >= _BATCH:
                sys.stdout.write("".join(pending))
                pending, size = [], 0
    finally:
        sys.stdout.write("".join(pending))


def _arg(*flags, **kw):
    """One argument as ``add_argument`` takes it; an option names its long flag first."""
    return flags, kw


_NUMERAL_OPTIONS = (
    _arg("--base", "-b", type=_integer, default=None, help="numeral base k"),
    _arg(
        "--alphabet",
        "-a",
        default=None,
        help="digit symbols: a literal string, or one of "
        + ", ".join(core.NAMED_ALPHABETS)
        + " (default: 1..9,X up to base 10, brackets above; env ZEROLESS_ALPHABET)",
    ),
)
_NUMERAL = (*_NUMERAL_OPTIONS, _arg("numeral"))
_TWO_NUMERALS = (*_NUMERAL_OPTIONS, _arg("x"), _arg("y"))

# name: (help, arguments in the order the usage lists them, run), in the
# order the help lists the commands; _build_parser and _match read it alone
_COMMANDS = {
    "encode": (
        "write a number as a zeroless numeral",
        (*_NUMERAL_OPTIONS, _arg("value", type=_natural, help="decimal number of any size")),
        _cmd_encode,
    ),
    "decode": ("read a zeroless numeral back to a number", _NUMERAL, _cmd_decode),
    "succ": ("successor of a zeroless numeral", _NUMERAL, _cmd_succ),
    "pred": ("predecessor of a zeroless numeral", _NUMERAL, _cmd_pred),
    "add": ("add two zeroless numerals", _TWO_NUMERALS, _cmd_add),
    "mul": (
        "multiply two zeroless numerals",
        (
            *_TWO_NUMERALS,
            _arg(
                "--generators",
                type=_generator_list,
                default=None,
                help="comma-separated digit values for splitting lattice cells",
            ),
            _arg("--trace", action="store_true", help="show lattice cells and column sums"),
        ),
        _cmd_mul,
    ),
    "convert": (
        "rewrite a numeral in the other notation, same value",
        (
            *_NUMERAL_OPTIONS,
            _arg("--to", choices=("zero", "lex"), required=True, help="target notation"),
            _arg("numeral"),
        ),
        _cmd_convert,
    ),
    "table": (
        "print a single-digit operation table",
        (
            *_NUMERAL_OPTIONS,
            _arg("op", choices=("add", "mul")),
            _arg("--machine", action="store_true", help="one tab-separated a, b, result line per entry"),
        ),
        _cmd_table,
    ),
    "enumerate": (
        "list numerals in shortlex order, starting at 1",
        (*_NUMERAL_OPTIONS, _arg("--count", type=_natural, required=True, help="how many numerals to print")),
        _cmd_enumerate,
    ),
    "rank": (
        "rank DNA sequences from a FASTA file",
        (
            _arg("--fasta", default="-", help="FASTA file, or - for stdin (default)"),
            _arg(
                "--policy",
                choices=("reject", "skip"),
                default="reject",
                help="what to do with records holding letters outside ACGT",
            ),
        ),
        _cmd_rank,
    ),
    "unrank": (
        "DNA sequence of a given rank",
        (_arg("rank", type=_natural, help="decimal rank of any size"),),
        _cmd_unrank,
    ),
}


def _build_parser():
    """The argparse parser of every command: help, usage errors and every argv _match leaves."""
    import argparse  # here alone, so that a plain argv loads neither it nor the gettext and locale it brings

    parser = argparse.ArgumentParser(
        prog="zeroless",
        description="Zeroless positional numerals: rank, unrank, arithmetic, conversion.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, arguments, run) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flags, kw in arguments:
            p.add_argument(*flags, **kw)
        p.set_defaults(run=run)
    return parser


def _plain(word: str) -> bool:
    """A word argparse reads as a value wherever it stands: no leading "-", or a lone "-"."""
    return word[:1] != "-" or word == "-"


def _match(argv):
    """The namespace argparse makes of ``argv`` when it has the plain form, else None.

    The plain form is a command name, then options by a name the table
    lists, each given once and followed by a value that does not start
    with "-" (a lone "-" may), flags, and positionals that do not start
    with "-"; every required option is there, and every type and choice
    takes its value. Help, --version, "--base=10", "-b10", abbreviations,
    "--", negative numbers, repeats and refused values are all left to
    argparse, which prints what it always did.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, arguments, run = _COMMANDS[argv[0]]
    options = {flag: (flags, kw) for flags, kw in arguments if flags[0][0] == "-" for flag in flags}
    texts, words = {}, []  # texts: an option's first flag -> its value, or True for a flag
    rest = iter(argv[1:])
    for word in rest:
        if _plain(word):
            words.append(word)
            continue
        spec = options.get(word)
        if spec is None or spec[0][0] in texts:
            return None
        flags, kw = spec
        if kw.get("action") == "store_true":
            texts[flags[0]] = True
            continue
        text = next(rest, None)
        if text is None or not _plain(text):
            return None
        texts[flags[0]] = text
    positionals = [flags[0] for flags, _ in arguments if flags[0][0] != "-"]
    if len(words) != len(positionals):
        return None
    texts.update(zip(positionals, words))
    space = {"command": argv[0], "run": run}
    for flags, kw in arguments:
        dest = flags[0].lstrip("-").replace("-", "_")
        if flags[0] not in texts:
            if kw.get("required"):
                return None
            space[dest] = False if kw.get("action") == "store_true" else kw.get("default")
            continue
        value = texts[flags[0]]
        if "type" in kw:
            try:
                value = kw["type"](value)
            except Exception:  # argparse runs the type again, and reports or raises as it always did
                return None
        if "choices" in kw and value not in kw["choices"]:
            return None
        space[dest] = value
    return types.SimpleNamespace(**space)


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    if argv is None:
        argv = sys.argv[1:]
    args = _match(argv) or _build_parser().parse_args(argv)
    try:
        _write(args.run(args))
        sys.stdout.flush()  # a closed pipe shows up here, not at exit
        return 0
    except BrokenPipeError:
        # the reader went away (`zeroless enumerate ... | head`): point
        # stdout at devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:  # ValueError covers UnicodeDecodeError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # one line, as for the errors above, not a traceback
        print("error: out of memory", file=sys.stderr)
        return 1


def run():
    """Run ``main()`` on sys.argv as a process and exit with its code.

    Everything alive once the package is imported lives until exit, so
    ``gc.freeze()`` moves it out of the collector's reach: the full
    collections that finalization runs then walk none of it.
    """
    gc.freeze()
    raise SystemExit(main())


if __name__ == "__main__":
    run()
