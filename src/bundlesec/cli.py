"""Command-line front end.

Subcommands: abelianize, split-check, cohomology, transgress, endo.
Each command returns its findings, one Output per report (split-check: one
per file), and prints nothing.  main alone wraps each in the one report
envelope, prints it (as JSON with --json, else as the Output's text lines)
and maps errors to exit codes.  Every report is complete before any is
printed, so a failing run prints none.  Reports are deterministic.
endo is split-check of the genus-3 example's bundle text, mcg.ENDO_SPEC,
labelled endo, with the text's sha256 as its input.
transgress and endo import their modules (transgression, mcg) when they run,
so no other command loads them; json is imported only to print a --json
report and by transgress, so a text-mode run never loads it.
Each input's sha256 is that of the file's bytes, from CPython's built-in
SHA-256, so no OpenSSL is loaded.
Exit codes: 0 success (any mathematical verdict), 2 missing or unreadable
file (a directory, no read permission: one line with the path and the OS
reason; a FIFO, a device or any other path that is not a regular file: one
line with the path and "not a regular file", before it is opened), 3 parse
error (bytes that are not UTF-8 too, at the line and column of the first bad
byte), 4 malformed bundle data (including data over a cap:
relator letters, bits of a bundle file's integers, Fox-row entry bits,
checked on the running prefix of each relator's Fox pass), 5 usage error
(transgress takes one of --k and --range), 6 failed internal check (a bug, in
one stderr line, such as a transgression that disagrees with xi*).
"""

from __future__ import annotations

import argparse
import os
import re
import stat
import sys
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

# the interpreter's own SHA-256, taken as the stdlib's random takes sha512:
# hashlib would map OpenSSL's libcrypto into the process to hash a few bytes
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:  # a build without built-in hashes
        from hashlib import sha256

from .extensions import MalformedSpec, TorusBundleSpec, h1_h2_base, lemma2_check, obstruction_class
from .specfile import parse_bundle_file
from .words import (MAX_RELATOR_LETTERS, ParseError, _quote, abelianization, parse_presentation,
                    position)
from .zlinalg import InvariantError

SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_NO_FILE = 2
EXIT_PARSE = 3
EXIT_MALFORMED = 4
EXIT_USAGE = 5
EXIT_INTERNAL = 6


class InputError(Exception):
    """An input file that cannot be read (exit 2)."""


def _digest(data: bytes) -> str:
    return sha256(data).hexdigest()


def _universal_newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _read(path: str) -> Tuple[str, str]:
    """(text, sha256 of the file's bytes).  The text is the bytes' UTF-8
    decoding with CR LF and a lone CR read as LF, as open() in text mode reads it.
    Only a regular file is opened: a FIFO would block and a device never end;
    a directory is left to open() to refuse."""
    try:
        mode = os.stat(path).st_mode
        if not (stat.S_ISREG(mode) or stat.S_ISDIR(mode)):
            raise InputError(f"cannot read {path}: not a regular file")
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        raise InputError(f"file not found: {path}") from None
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = _universal_newlines(data[:exc.start].decode("utf-8"))
        raise ParseError(f"invalid UTF-8 byte 0x{data[exc.start]:02x}",
                         *position(before, len(before))) from None
    return _universal_newlines(text), _digest(data)


class Output(NamedTuple):
    """One report's findings; main wraps them in the envelope and prints them."""

    inputs: Dict
    result: Dict
    verdict: str
    lines: List[str]  # the text form


def cmd_abelianize(path: str) -> List[Output]:
    text, digest = _read(path)
    group = abelianization(parse_presentation(text))
    result = {
        "group": str(group),
        "invariant_factors": list(group.invariant_factors),
        "rank": group.rank,
    }
    return [Output({"path": path, "sha256": digest}, result, str(group),
                   [f"{path}: abelianization {group} (rank {group.rank})"])]


def _split_check_text(label: str, text: str, inputs: Dict) -> Output:
    """The split-check report of a bundle text, its lines headed by label."""
    spec = parse_bundle_file(text).to_spec()
    obstruction = obstruction_class(spec)
    ob = obstruction.to_json_dict()
    lines = [
        f"{label}: {obstruction.verdict}",
        f"  s(r) = {ob['s_of_r']}",
        f"  quotient = {ob['quotient']}, class = {ob['class']}",
    ]
    lemma2: Dict = {"applies": False}
    if isinstance(spec, TorusBundleSpec) and obstruction.lifted:
        # compare pi^ab against (fibre coinvariants) + (base abelianization);
        # with s(r) as the offsets, the lifts' translations are folded in
        check = lemma2_check(spec.base, spec.coefficients, obstruction.s_of_r)
        lemma2 = {
            "applies": True,
            "group_ab": str(check.group_ab),
            "expected": str(check.expected),
            "is_isomorphic": check.is_isomorphic,
        }
        lines.append(
            f"  abelianization test: pi^ab = {check.group_ab}, expected {check.expected}, "
            f"{'isomorphic' if check.is_isomorphic else 'NOT isomorphic'}")
    return Output(inputs, {"obstruction": ob, "lemma2": lemma2}, obstruction.verdict, lines)


def _split_check_one(path: str) -> Output:
    text, digest = _read(path)
    return _split_check_text(path, text, {"path": path, "sha256": digest})


def cmd_split_check(paths: Sequence[str]) -> List[Output]:
    return [_split_check_one(p) for p in paths]


def cmd_cohomology(path: str) -> List[Output]:
    text, digest = _read(path)
    bundle = parse_bundle_file(text)
    if bundle.fibre_kind == "kb":
        raise MalformedSpec("cohomology supports torus-module coefficients only")
    h1, h2 = h1_h2_base(bundle.base, bundle.torus_action())
    return [Output({"path": path, "sha256": digest}, {"h1": str(h1), "h2": str(h2)},
                   f"H1 = {h1}; H2 = {h2}", [f"{path}: H^1 = {h1}, H^2 = {h2}"])]


# the relators u^-k [x,y] of one transgress request hold |k| + 4 letters each
_TOO_MANY_LETTERS = f"request holds more than {MAX_RELATOR_LETTERS} relator letters (|k| + 4 per k)"
# what int() reads: optional sign, decimal digits with single underscores between
_INTEGER = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")


def _k_value(text: str) -> int:
    """int(text) for --k; a value that is none is quoted clipped."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_quote(text)}") from None


def _parse_range(text: str) -> range:
    lo_text, dots, hi_text = text.partition("..")
    if not (dots and _INTEGER.fullmatch(lo_text) and _INTEGER.fullmatch(hi_text)):
        raise MalformedSpec(f"bad range {_quote(text)}; expected a..b")
    try:
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:  # more digits than int() converts, so far over the cap
        raise MalformedSpec(_TOO_MANY_LETTERS) from None
    if lo > hi:
        raise MalformedSpec(f"empty range {_quote(text)}")
    return range(lo, hi + 1)


def cmd_transgress(k: Optional[int], range_text: Optional[str]) -> List[Output]:
    import json

    from .transgression import CentralExtensionSpec, transgress, xi_star

    # argparse sets exactly one of k and range_text
    ks = range(k, k + 1) if range_text is None else _parse_range(range_text)
    # the first test bounds the second's loop
    if (4 * (ks.stop - ks.start) > MAX_RELATOR_LETTERS
            or sum(abs(kk) + 4 for kk in ks) > MAX_RELATOR_LETTERS):
        raise MalformedSpec(_TOO_MANY_LETTERS)
    rows = []
    for kk in ks:
        spec = CentralExtensionSpec(kk)
        d2, xi = transgress(spec), xi_star(spec)
        # d2 = xi* is a theorem, so a disagreement is a bug
        if d2 != xi:
            raise InvariantError(f"k = {kk}: transgression {d2} != xi* {xi}")
        rows.append({"k": kk, "transgression": d2, "xi_star": xi, "agree": True})
    inputs = {"k_values": [r["k"] for r in rows]}
    inputs["sha256"] = _digest(json.dumps(inputs["k_values"]).encode())
    lines = [f"k = {r['k']}: d2 = {r['transgression']}, xi* = {r['xi_star']} AGREE" for r in rows]
    lines.append("overall: AGREE")
    return [Output(inputs, {"cases": rows}, "AGREE", lines)]


def cmd_endo() -> List[Output]:
    from .mcg import ENDO_SPEC

    return [_split_check_text("endo", ENDO_SPEC, {"sha256": _digest(ENDO_SPEC.encode())})]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bundlesec",
        description="Splitting obstructions for surface-bundle group extensions.")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable reports (text is the default)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("abelianize", help="invariant factors of a presented group")
    p.add_argument("file")
    p.set_defaults(run=lambda args: cmd_abelianize(args.file))

    p = sub.add_parser("split-check", help="relator obstruction for a bundle file")
    p.add_argument("files", nargs="+")
    p.set_defaults(run=lambda args: cmd_split_check(args.files))

    p = sub.add_parser("cohomology", help="H^1 and H^2 of the base with module coefficients")
    p.add_argument("file")
    p.set_defaults(run=lambda args: cmd_cohomology(args.file))

    p = sub.add_parser("transgress", help="transgression vs evaluation of the class")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--k", type=_k_value, default=None)
    which.add_argument("--range", dest="range_text", metavar="A..B", default=None)
    p.set_defaults(run=lambda args: cmd_transgress(args.k, args.range_text))

    p = sub.add_parser("endo", help="split-check of the genus-3 example (bundlesec.mcg)")
    p.set_defaults(run=lambda args: cmd_endo())
    return parser


def _fold_range_flag(argv: List[str]) -> List[str]:
    # let "--range -5..5" through argparse, which would otherwise read the
    # value as an option string
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--range" and i + 1 < len(argv):
            out.append(f"--range={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser().parse_args(_fold_range_flag(list(argv)))
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the code of a missing file
        if exc.code != 2:
            raise
        return EXIT_USAGE
    try:
        # every report is complete before any is printed
        outputs = args.run(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_FILE
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MalformedSpec as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except InvariantError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    for out in outputs:
        if args.json:
            import json

            report = {"schema_version": SCHEMA_VERSION, "command": args.command,
                      "inputs": out.inputs, "result": out.result, "verdict": out.verdict}
            print(json.dumps(report, indent=2))
        else:
            print("\n".join(out.lines))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
