"""Command-line interface: crystals, characters, verification suites, oracle."""
from __future__ import annotations

import argparse
import io
import json
import sys

from . import characters as ch
from . import verify
from .demazure import demazure_crystal_recursive, export_graph, generate_crystal
from .weights import (
    Weight,
    demazure_character_oracle,
    parse_weyl_word,
    specialize,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _weight(args) -> Weight:
    if args.s < 0 or args.t < 0 or args.s + args.t < 1:
        raise SystemExit2("need s, t >= 0 with s + t >= 1")
    return Weight(args.s, args.t, 0)


class SystemExit2(Exception):
    """Invalid input: ``main`` prints it on one line and exits 2, as it does
    for an ``--out`` it cannot open or write.  Any other exception is a
    fault of the program and propagates."""


def _word(text: str):
    """The reduced Weyl word ``text`` names; anything else is a usage error."""
    try:
        return parse_weyl_word(text)
    except ValueError as e:
        raise SystemExit2(str(e)) from None


def _write_character(poly, fmt: str, out) -> int:
    text = json.dumps(poly.to_json_obj(), sort_keys=True) if fmt == "json" else poly.to_text()
    out.write(text + "\n")
    return EXIT_OK


# route -> character of Lambda at L; the oracle evaluates w^+_L
ROUTES = {
    "path": lambda lam, L: ch.ch_path_bruteforce(lam, L),
    "recursive": lambda lam, L: ch.ch_via_f(lam, L, ch.f_recursive),
    "bosonic": lambda lam, L: ch.ch_via_f(lam, L, ch.f_bosonic),
    "fermionic": lambda lam, L: ch.ch_via_f(lam, L, ch.f_fermionic),
    "demazure+": lambda lam, L: ch.demazure_ch(lam, "+", L),
    "demazure-": lambda lam, L: ch.demazure_ch(lam, "-", L),
    "oracle": lambda lam, L: ch.demazure_ch_oracle(lam, "+", L),
}
# the bosonic double sum and the Demazure formulas start at L = 1
STARTS_AT_L1 = ("bosonic", "demazure+", "demazure-")


def cmd_character(args, out) -> int:
    lam = _weight(args)
    if args.L is None:
        raise SystemExit2("character requires -L")
    least = 1 if args.route in STARTS_AT_L1 else 0
    if args.L < least:
        raise SystemExit2(f"route {args.route} requires L >= {least}")
    return _write_character(ROUTES[args.route](lam, args.L), args.format, out)


def cmd_oracle(args, out) -> int:
    lam = _weight(args)
    if args.word is None:
        raise SystemExit2("oracle requires --word")
    word = _word(args.word)
    return _write_character(specialize(demazure_character_oracle(lam, word), lam), args.format, out)


def cmd_crystal(args, out) -> int:
    lam = _weight(args)
    if args.word is not None:  # "" is the identity word, as w+0 is
        word = _word(args.word)
        verts = demazure_crystal_recursive(lam, word)
        # the f-closure inside the recursive set; a vertex it cannot reach
        # would be a fault of one of the two routes
        G = generate_crystal(lam, len(word), verts.__contains__)
        if G.vertices != verts:
            raise RuntimeError(f"the f-closure of the vacuum inside B_w misses "
                               f"{len(verts) - len(G.vertices)} of its vertices")
    elif args.L is not None:
        if args.L < 0:
            raise SystemExit2("crystal requires L >= 0")
        G = generate_crystal(lam, args.L)
    else:
        raise SystemExit2("crystal requires --word or -L")
    out.write(export_graph(G, args.format))
    return EXIT_OK


def cmd_verify(args, out) -> int:
    # every suite's grid is non-empty once both bounds are at least 1
    if args.max_k < 1 or args.max_L < 1:
        raise SystemExit2("verify requires --max-k >= 1 and --max-L >= 1")
    ok = True
    for check in verify.SUITES[args.suite](args.max_k, args.max_L):
        for failure in check.failures:
            out.write(f"FAIL {failure}\n")
        out.write(f"{check.label}: {'pass' if check.ok else 'FAIL'}\n")
        ok = ok and check.ok
    out.write(f"suite {args.suite}: {'PASS' if ok else 'FAIL'}\n")
    return EXIT_OK if ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="demcrystal",
        description="Demazure crystals and characters for affine sl(2).",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, formats=("table", "json")):
        sp.add_argument("--s", type=int, default=0)
        sp.add_argument("--t", type=int, default=0)
        sp.add_argument("--format", choices=formats, default="table")
        sp.add_argument("--out", type=str, default=None)

    sp = sub.add_parser("crystal", help="enumerate a crystal or Demazure crystal")
    common(sp, ("table", "json", "dot"))
    size = sp.add_mutually_exclusive_group()
    size.add_argument("-L", type=int, default=None)
    size.add_argument("--word", type=str, default=None)

    sp = sub.add_parser("character", help="compute a character by a chosen route")
    common(sp)
    sp.add_argument("-L", type=int, default=None)
    sp.add_argument("--route", choices=tuple(ROUTES), default="recursive")

    sp = sub.add_parser("oracle", help="Demazure-operator character for a word")
    common(sp)
    sp.add_argument("--word", type=str, default=None)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("--suite", required=True, choices=sorted(verify.SUITES))
    sp.add_argument("--max-k", type=int, default=2)
    sp.add_argument("--max-L", type=int, default=4)
    sp.add_argument("--out", type=str, default=None)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    handlers = {
        "character": cmd_character,
        "crystal": cmd_crystal,
        "oracle": cmd_oracle,
        "verify": cmd_verify,
    }
    # a sink that cannot be opened or written is a usage error, not a fault
    try:
        if args.out:  # opened before any work, written only if the request succeeds
            open(args.out, "a").close()
        sink = io.StringIO() if args.out else sys.stdout
        code = handlers[args.command](args, sink)
        if args.out:
            with open(args.out, "w") as f:
                f.write(sink.getvalue())
        return code
    except (SystemExit2, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
