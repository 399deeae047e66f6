"""Command line front end.

Subcommands:

* decompose: list the constituents of S^k(S^m) or Λ^k(S^m) with their words.
* hwv: the words (optionally expanded to polynomials) for one weight.
* kostka: one Kostka number.
* verify: run the named self-check suite; exits 1 if anything fails.

Exit codes:

* 0: success.
* 1: verification failure (some check of ``verify`` failed).
* 2: usage error, including an ``--output`` file that cannot be written
  (checked before any work).
* 3: instance too large: ``--m``, or the diagrams inside ``kostka --shape``,
  past its limit in ``LIMITS``, checked before any work.

No command takes ``--n``: each constituent has at most three rows and the same
multiplicity for every n >= 3, so ``verify`` runs its oracles at n = 3.

Code 3, and the code-2 errors named above, print one line on stderr,
``plethysm: error: ...`` or ``plethysm: instance too large: ...``.  Every
other code-2 error is an argparse usage error (an unknown, missing or
malformed option, or an out-of-range value such as ``--m -1``): it prints
the usage text first, then the one error line.

Output is written piece by piece as it is produced, in both formats: a word
at a time, and with ``--expand`` each word's polynomial in runs of
``polynomials.TERMS_PER_PIECE`` terms, so neither the whole document nor the
whole text of one polynomial is ever held in memory.  Two consequences:

* A reader that closes stdout early (``| head``) stops the run, with exit 0
  and nothing on stderr.
* A write that fails partway (a full disk) exits 2 as above, but the part
  already written stays behind in the ``--output`` file.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from collections.abc import Iterable, Iterator
from itertools import accumulate

from . import hwv, oracle, polynomials, tableaux, verify


def _parse_ints(text: str, label: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(p) for p in text.split(",") if p.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"{label} must be comma-separated integers")
    return parts


def _partition_arg(text: str) -> tuple[int, ...]:
    parts = _parse_ints(text, "shape")
    try:
        tableaux.normalize_partition(parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return parts


def _content_arg(text: str) -> tuple[int, ...]:
    parts = _parse_ints(text, "content")
    if any(p < 0 for p in parts):
        raise argparse.ArgumentTypeError("content entries must be nonnegative")
    return parts


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plethysm",
        description="Exact decompositions of S^k(S^m(C^n)) and Λ^k(S^m(C^n)), k <= 3.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--k", type=int, choices=(2, 3), default=3,
                       help="outer power (default 3)")
        p.add_argument("--m", type=int, required=True, help="inner symmetric power")
        p.add_argument("--variant", choices=("sym", "alt"), default="sym",
                       help="symmetric or alternating outer power")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--expand", action="store_true",
                       help="include expanded polynomials")
        p.add_argument("--output", help="write to this file instead of stdout")

    p_dec = sub.add_parser("decompose", help="full constituent list with words")
    common(p_dec)

    p_hwv = sub.add_parser("hwv", help="highest weight words for one weight")
    common(p_hwv)
    p_hwv.add_argument("--shape", type=_partition_arg, required=True,
                       help="target highest weight, e.g. 9,6")

    p_kostka = sub.add_parser("kostka", help="number of semistandard tableaux")
    p_kostka.add_argument("--shape", type=_partition_arg, required=True)
    p_kostka.add_argument("--content", type=_content_arg, required=True)
    p_kostka.add_argument("--output", help="write to this file instead of stdout")

    p_verify = sub.add_parser("verify", help="run the self-check suite")
    p_verify.add_argument("--m", type=int, default=3,
                          help="depth of the heavier checks (default 3)")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--output", help="write to this file instead of stdout")
    return parser


def _emit(chunks: Iterable[str], output: str | None) -> None:
    """Write the pieces in order as they come, to ``output`` or to stdout."""
    if output:
        try:
            with open(output, "w", encoding="utf-8") as handle:
                handle.writelines(chunks)
        except OSError as exc:  # exit 2 like any usage error, not 1 or a traceback
            raise ValueError(f"cannot write {output}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.writelines(chunks)


def _check_output(output: str) -> None:
    """Refuse an ``--output`` that cannot be written, before any work starts.

    Nothing is created or truncated here; ``_emit`` still turns a write that
    fails anyway into the same error.
    """
    parent = os.path.dirname(output) or os.curdir
    if not os.path.isdir(parent):
        reason = errno.ENOENT
    elif os.path.isdir(output):
        reason = errno.EISDIR
    elif not os.access(output if os.path.exists(output) else parent, os.W_OK):
        reason = errno.EACCES
    else:
        return
    raise ValueError(f"cannot write {output}: {os.strerror(reason)}")


# The largest --m each command takes, and the most diagrams `kostka` may find
# inside --shape; at each limit a cold run kept within a minute, 1 GB of
# memory and 1 GB of output on 2 vCPUs.  For k = 2 with --expand the limit is
# the degree bound: 2m at most polynomials.MAX_DEGREE.
LIMITS = {"--m for k = 3": 200, "--m for k = 3 with --expand": 18, "--m for k = 2": 600_000,
          "--m for k = 2 with --expand": polynomials.MAX_DEGREE // 2, "verify --m": 80,
          "diagrams inside kostka --shape": 500_000}


def _diagrams_inside(shape: tuple[int, ...], cap: int) -> int:
    """The number of diagrams inside `shape`, or cap + 1 once it is past `cap`.

    These are the states of the Pieri pass in `tableaux.kostka`.  A chain of
    diagrams from () to the shape holds |shape| + 1 of them, so a shape of
    `cap` cells or more is past at once.  Otherwise they are counted row by
    row, each entry at most `cap`: ways[v] counts the diagrams inside the rows
    so far whose last row has v cells, and the next row has at most v.
    """
    shape = tableaux.normalize_partition(shape)
    if sum(shape) >= cap:
        return cap + 1
    ways = [1] * (shape[0] + 1) if shape else [1]
    for length in shape[1:]:
        ways = list(accumulate(reversed(ways)))[::-1][:length + 1]
        if ways[0] > cap:  # the diagrams inside the rows before this one
            return cap + 1
    return min(sum(ways), cap + 1)


def _check_size(args) -> None:
    """Raise InstanceTooLargeError if ``args.m`` is past its entry in ``LIMITS``."""
    if args.command == "verify":
        name = "verify --m"
    else:
        name = f"--m for k = {args.k}" + (" with --expand" if args.expand else "")
    if args.m > LIMITS[name]:
        raise oracle.InstanceTooLargeError(f"{name} is {args.m}, past the limit {LIMITS[name]}")


def _validate_common(parser: argparse.ArgumentParser, args) -> None:
    if args.m < 0:
        parser.error("--m must be nonnegative")
    if args.variant == "alt" and args.m < 1:
        parser.error("the alternating component needs --m >= 1")


def cmd_decompose(parser: argparse.ArgumentParser, args) -> int:
    _validate_common(parser, args)
    _check_size(args)
    report = hwv.decompose(args.k, args.m, args.variant)
    if args.format == "json":
        _emit(report.json_chunks(expand=args.expand), args.output)
    else:
        _emit(report.text_lines(expand=args.expand), args.output)
    return 0


def _hwv_lines(words, expand: bool) -> Iterator[str]:
    for word in words:
        yield f"{word}  grade={word.grade()}  weight=({','.join(map(str, word.weight()))})\n"
        if expand:
            yield from word.expand().text_pieces("  = ", "\n")


def cmd_hwv(parser: argparse.ArgumentParser, args) -> int:
    _validate_common(parser, args)
    shape = tableaux.normalize_partition(args.shape)
    if len(shape) > args.k:
        parser.error(f"--shape has more than k = {args.k} rows; no words exist")
    if sum(shape) != args.k * args.m:
        parser.error(f"|shape| must equal k*m = {args.k * args.m}")
    _check_size(args)
    report = hwv.diagram_report(args.k, args.m, args.variant, shape)
    if args.format == "json":
        _emit(report.json_chunks(expand=args.expand, shape=shape), args.output)
    else:
        _emit(_hwv_lines(report.words_of(shape), args.expand), args.output)
    return 0


def cmd_kostka(parser: argparse.ArgumentParser, args) -> int:
    name = "diagrams inside kostka --shape"
    if _diagrams_inside(args.shape, LIMITS[name]) > LIMITS[name]:
        raise oracle.InstanceTooLargeError(f"{name} are past the limit {LIMITS[name]}")
    value = tableaux.kostka(args.shape, args.content)
    _emit((f"{value}\n",), args.output)
    return 0


def cmd_verify(parser: argparse.ArgumentParser, args) -> int:
    if args.m < 0:
        parser.error("--m must be nonnegative")
    _check_size(args)
    results = verify.run_verification(m_max=args.m)
    ok = all(r.passed for r in results)
    if args.format == "json":
        obj = {"passed": ok, "checks": [r._asdict() for r in results]}
        _emit((json.dumps(obj, indent=2, ensure_ascii=False) + "\n",), args.output)
    else:
        lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}\n" for r in results]
        lines.append(f"{sum(r.passed for r in results)}/{len(results)} checks passed\n")
        _emit(lines, args.output)
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "decompose": cmd_decompose,
        "hwv": cmd_hwv,
        "kostka": cmd_kostka,
        "verify": cmd_verify,
    }
    try:
        if args.output:
            _check_output(args.output)
        return handlers[args.command](parser, args)
    except oracle.InstanceTooLargeError as exc:
        print(f"plethysm: instance too large: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"plethysm: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader of stdout stopped early, as `| head` does.  What it read
        # is all it wanted, so this is a success; stdout goes to devnull so
        # that the interpreter's last flush fails silently too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
