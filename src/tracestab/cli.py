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
``parse_args`` reads a well-formed command line straight from the table.
``argparse`` is bound lazily like the layers and runs only for help and usage
errors.  So importing this module runs only ``errors``, and a command compiles
this module, its own command module and the layers it calls.
"""

from __future__ import annotations

import importlib.util
import json
import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from types import SimpleNamespace

from . import rootdata
from .errors import MalformedInput, TraceStabError

# argparse, with the gettext it imports, runs on first use: only help and usage errors.
argparse = sys.modules.get("argparse")
if argparse is None:
    _spec = importlib.util.find_spec("argparse")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    argparse = sys.modules["argparse"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(argparse)

EXIT_OK = 0
EXIT_IDENTITY_FAILED = 1
EXIT_MISSING_FILE = 3
EXIT_MALFORMED = 4
EXIT_MODULE_ERROR = 5

# Largest rank of a group read from a file: memory grows as rank², and A64 is
# the largest rank in use.
MAX_FILE_RANK = 256


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


def _rational_rows(obj) -> tuple:
    """Central-subgroup generators: a list of lists of exact rationals (``parse_q``)."""
    if not isinstance(obj, list) or not all(isinstance(row, list) for row in obj):
        raise MalformedInput("generators must be a list of lists of rationals")
    return tuple(tuple(parse_q(v) for v in row) for row in obj)


def _datum_from_obj(obj) -> rootdata.RootDatum:
    if isinstance(obj, str):
        return rootdata.named_datum(obj)
    if not isinstance(obj, dict):
        raise MalformedInput("group spec must be a name or an object")
    _require_keys(obj, ("rank", "simple_roots", "simple_coroots"))
    if type(obj["rank"]) is not int:
        raise MalformedInput("rank must be an integer")
    if obj["rank"] < 0:
        raise MalformedInput(f"rank {obj['rank']} is negative")
    if obj["rank"] > MAX_FILE_RANK:
        raise MalformedInput(f"rank {obj['rank']} is above the limit {MAX_FILE_RANK}")
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


def _emit(config: SimpleNamespace, obj, tsv_rows) -> None:
    if config.fmt == "tsv":
        for row in tsv_rows:
            sys.stdout.write("\t".join(str(c) for c in row) + "\n")
    else:
        sys.stdout.write(_dump(obj))


# Every option a command may read, as argparse takes it; ``_read_table`` reads the same keys.
_OPTIONS = {
    "--group": {}, "--theta": {}, "--z": {}, "--model": {"required": True},
    "--models": {"default": "fixtures"}, "--seed": {"type": int, "default": 0},
    "--trials": {"type": _trial_count, "default": 100},
    "--format": {"dest": "fmt", "choices": ("json", "tsv"), "default": "json"},
    "--catalog": {"dest": "catalog_flag", "action": "store_true", "default": False},
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


def _read_table(args: list) -> SimpleNamespace | None:
    """The namespace argparse gives a well-formed ``args``, read from the table; else None.

    Well formed: a command's words, then each of its options at most once as
    ``--flag value`` (a switch alone), every value valid and not starting with
    "-", and every required option given.
    """
    for path, runner, options in COMMANDS:
        words = path.split()
        if args[:len(words)] == words:
            break
    else:
        return None
    head, _, tail = path.partition(" ")
    config = {"subcommand": head, **({"target": tail} if tail else {}), "runner": runner}
    flags = options.split()
    config.update((_OPTIONS[flag].get("dest", flag[2:]), _OPTIONS[flag].get("default"))
                  for flag in flags)
    rest = iter(args[len(words):])
    for flag in rest:
        if flag not in flags:  # unknown, abbreviated, --flag=value or given twice
            return None
        flags.remove(flag)
        spec = _OPTIONS[flag]
        if "action" in spec:  # the one action in _OPTIONS is store_true
            value = True
        else:
            text = next(rest, "-")
            try:
                value = spec.get("type", str)(text)
            except (ValueError, TypeError, argparse.ArgumentTypeError):
                return None
            if text.startswith("-") or value not in spec.get("choices", (value,)):
                return None
        config[spec.get("dest", flag[2:])] = value
    if any(_OPTIONS[flag].get("required") for flag in flags):
        return None
    return SimpleNamespace(**config)


def parse_args(argv) -> SimpleNamespace:
    """Parse ``argv`` (``sys.argv[1:]`` when None) into the options its command reads.

    A well-formed command line is read from ``COMMANDS`` and ``_OPTIONS``
    alone.  Any other goes to argparse, so help and usage errors read as
    before.  Neither its top-level parser nor ``verify`` takes an option with a
    value, so the first word not starting with "-" is the subcommand, and after
    ``verify`` the second is the target.  Every parser is built, but only the
    named command gets options: ``add_argument`` builds a help formatter.
    """
    args = sys.argv[1:] if argv is None else list(argv)
    config = _read_table(args)
    if config is not None:
        return config
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
    return SimpleNamespace(**vars(parser.parse_args(args)))


def run(config: SimpleNamespace) -> int:
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
    # So that the command modules' ``from .cli import …`` finds this copy under ``-m`` and
    # does not run the file again (``runpy`` without ``alter_sys`` gives a bare namespace).
    if vars(sys.modules[__name__]) is globals():
        sys.modules.setdefault(f"{__package__}.cli", sys.modules[__name__])
    sys.exit(main())
