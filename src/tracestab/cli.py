"""Command-line entry: the command table, argument parsing, exit codes and shared helpers.

All reports are deterministic: rationals are serialized as "p/q" strings in
lowest terms with an explicit sign, JSON objects are dumped with sorted keys,
and nothing depends on hash order.  Exit codes: 0 all requested identities
hold, 1 an identity fails, 2 usage error, 3 missing file, 4 malformed input,
5 a computation error propagated from a module.

The runners live in three command modules, registered lazily like the layers
(see ``tracestab/__init__``): ``cli_rootdata`` (``i-number``, ``elliptic``,
``sigma``, ``verify ei``, ``verify central-quotient``), ``cli_packets``
(``packets verify``) and ``cli_stabilize`` (``stabilize verify``, ``verify
stabilization``, ``report``).  The command table names each runner as
``module.function`` and ``run`` looks it up only when its command runs, and
``parse_args`` builds options only for the command named on the command line.
So importing this module runs only ``errors``, and a command compiles this
module, its own command module and the layers it calls.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from fractions import Fraction

from . import rootdata
from .errors import MalformedInput, TraceStabError

EXIT_OK = 0
EXIT_IDENTITY_FAILED = 1
EXIT_MISSING_FILE = 3
EXIT_MALFORMED = 4
EXIT_MODULE_ERROR = 5


def fmt_q(x: Fraction) -> str:
    x = Fraction(x)
    if x == 0:
        return "0/1"
    sign = "-" if x < 0 else "+"
    return f"{sign}{abs(x.numerator)}/{x.denominator}"


def parse_q(text) -> Fraction:
    if type(text) is int:  # JSON true/false are bools, not integers
        return Fraction(text)
    if isinstance(text, str):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass
    raise MalformedInput(f"expected an exact rational, got {text!r}")


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=2) + "\n"


def _load_json(path: str):
    if not os.path.isfile(path):
        raise FileNotFoundError(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.loads(fh.read(), parse_float=_reject_float)
    except (UnicodeDecodeError, RecursionError) as exc:  # not UTF-8; nested past the decoder's limit
        raise MalformedInput(str(exc)) from exc


@contextmanager
def _parsing():
    """Report a wrongly shaped value met while turning JSON into data as malformed input.

    Only the parsing steps run under this; the same errors raised by a
    computation are bugs and propagate.
    """
    try:
        yield
    except (KeyError, TypeError) as exc:
        raise MalformedInput(str(exc)) from exc


def _reject_float(s):
    raise MalformedInput(f"floats are not accepted in input files: {s}")


def _require_keys(obj: dict, required, optional=()):
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise MalformedInput(f"unknown fields in input: {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise MalformedInput(f"missing fields in input: {sorted(missing)}")


def _int_matrix(obj) -> tuple:
    if not isinstance(obj, list):
        raise MalformedInput("matrix must be a list of integer rows")
    out = []
    for row in obj:
        if not isinstance(row, list) or not all(type(x) is int for x in row):
            raise MalformedInput("matrix rows must be lists of integers")
        out.append(tuple(row))
    return tuple(out)


def _datum_from_obj(obj) -> rootdata.RootDatum:
    if isinstance(obj, str):
        return rootdata.named_datum(obj)
    if not isinstance(obj, dict):
        raise MalformedInput("group spec must be a name or an object")
    _require_keys(obj, ("rank", "simple_roots", "simple_coroots"))
    if type(obj["rank"]) is not int:
        raise MalformedInput("rank must be an integer")
    return rootdata.build_root_datum(obj["rank"], _int_matrix(obj["simple_roots"]),
                                     _int_matrix(obj["simple_coroots"]))


def _trial_count(text: str) -> int:
    """--trials: a non-negative integer; 0 runs no random trials."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _emit(config: argparse.Namespace, obj, tsv_rows) -> None:
    if config.fmt == "tsv":
        for row in tsv_rows:
            sys.stdout.write("\t".join(str(c) for c in row) + "\n")
    else:
        sys.stdout.write(_dump(obj))


# Every option a command may read, as argparse takes it.
_OPTIONS = {
    "--group": {}, "--theta": {}, "--z": {}, "--model": {"required": True},
    "--models": {"default": "fixtures"}, "--seed": {"type": int, "default": 0},
    "--trials": {"type": _trial_count, "default": 100},
    "--format": {"dest": "fmt", "choices": ("json", "tsv"), "default": "json"},
    "--catalog": {"dest": "catalog_flag", "action": "store_true"},
}

# One row per command: its path, its runner as ``module.function`` and the options that
# runner reads.  The second word of a ``verify`` path is a target; any other is a
# positional that options may precede.  The runner is a name, so building the table
# runs no command module.
COMMANDS = (
    ("i-number", "cli_rootdata.run_i_number", "--group --theta --format"),
    ("elliptic", "cli_rootdata.run_elliptic", "--group --theta --format"),
    ("sigma", "cli_rootdata.run_sigma", "--group --format --catalog"),
    ("verify ei", "cli_rootdata.run_verify_ei", "--group --theta --format"),
    ("verify central-quotient", "cli_rootdata.run_verify_central_quotient", "--group --z"),
    ("verify stabilization", "cli_stabilize.run_stabilize_verify", "--models --seed --trials"),
    ("packets verify", "cli_packets.run_packets_verify", "--model --seed --trials"),
    ("stabilize verify", "cli_stabilize.run_stabilize_verify", "--models --seed --trials"),
    ("report", "cli_stabilize.run_report", "--seed"),
)


def parse_args(argv) -> argparse.Namespace:
    """Parse ``argv`` (``sys.argv[1:]`` when None), building options only for its command.

    Neither the top-level parser nor ``verify`` takes an option with a value,
    so the first word not starting with "-" is the subcommand argparse picks,
    and after ``verify`` the second is the target.  Every parser is built, so
    usage and choice errors read as before; ``add_argument`` builds a help
    formatter on every call, which is why the other commands get none.
    """
    args = sys.argv[1:] if argv is None else argv
    words = [a for a in args if not a.startswith("-")]
    parser = argparse.ArgumentParser(prog="tracestab",
                                     description="Exact spectral coefficients and "
                                                 "stabilization identity checks.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    targets = None
    for path, runner, options in COMMANDS:
        head, _, tail = path.partition(" ")
        if head == "verify":
            if targets is None:
                targets = sub.add_parser("verify").add_subparsers(dest="target", required=True)
            p = targets.add_parser(tail)
            named = words[:2] == [head, tail]
        else:
            p = sub.add_parser(head)
            named = words[:1] == [head]
            if tail and named:
                p.add_argument("target", choices=(tail,))
        if named:
            for flag in options.split():
                p.add_argument(flag, **_OPTIONS[flag])
        p.set_defaults(runner=runner)
    return parser.parse_args(args)


def run(config: argparse.Namespace) -> int:
    """Run a parsed configuration's command; returns the process exit code."""
    module, _, name = config.runner.partition(".")
    runner = getattr(sys.modules[f"{__package__}.{module}"], name)  # runs the module's code
    try:
        return runner(config)
    except FileNotFoundError as exc:
        sys.stderr.write(f"missing file: {exc}\n")
        return EXIT_MISSING_FILE
    except (MalformedInput, json.JSONDecodeError) as exc:
        sys.stderr.write(_dump({"error": {"kind": "malformed-input", "detail": str(exc)}}))
        return EXIT_MALFORMED
    except TraceStabError as exc:
        sys.stderr.write(_dump({"error": {"kind": type(exc).__name__, "detail": str(exc)}}))
        return EXIT_MODULE_ERROR


def main(argv=None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
