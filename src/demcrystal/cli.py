"""Command-line interface: crystals, characters, verification suites, oracle."""
from __future__ import annotations

import io
import json
import os
import sys
from types import SimpleNamespace

from . import characters as ch
from . import verify
from .demazure import export_graph, generate_crystal
from .weights import Weight, parse_weyl_word

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
    """(L, sign) of the reduced Weyl word ``text`` names; anything else is a
    usage error.  A reduced word alternates, so it is w^+/-_L by its length
    and last letter; the identity word has no sign."""
    try:
        word = parse_weyl_word(text)
    except ValueError as e:
        raise SystemExit2(str(e)) from None
    return len(word), "+-"[word[-1]] if word else None


def _write_character(poly, fmt: str, out) -> int:
    text = json.dumps(poly.to_json_obj(), sort_keys=True) if fmt == "json" else poly.to_text()
    out.write(text + "\n")
    return EXIT_OK


def cmd_character(args, out) -> int:
    lam = _weight(args)
    if args.L is None:
        raise SystemExit2("character requires -L")
    least, _, route = ch.ROUTES[args.route]
    if args.L < least:
        raise SystemExit2(f"route {args.route} requires L >= {least}")
    try:
        poly = route(lam, args.L)
    except RecursionError:  # f_recursive is L deep, occupation_vectors k + 1 deep
        raise SystemExit2(f"route {args.route} recurses too deep at level {lam.level}, "
                          f"L = {args.L}") from None
    return _write_character(poly, args.format, out)


def cmd_oracle(args, out) -> int:
    lam = _weight(args)
    if args.word is None:
        raise SystemExit2("oracle requires --word")
    L, sign = _word(args.word)
    # the identity word is w^+_0
    return _write_character(ch.demazure_ch_oracle(lam, sign or "+", L), args.format, out)


def cmd_crystal(args, out) -> int:
    if args.word is not None and args.L is not None:
        raise SystemExit2("crystal takes --word or -L, not both")
    lam = _weight(args)
    if args.word is not None:  # "" is the identity word, as w+0 is
        G = generate_crystal(lam, *_word(args.word))
    elif args.L is not None:
        if args.L < 0:
            raise SystemExit2("crystal requires L >= 0")
        G = generate_crystal(lam, args.L)
    else:
        raise SystemExit2("crystal requires --word or -L")
    out.write(export_graph(G, args.format))
    return EXIT_OK


def cmd_verify(args, out) -> int:
    if args.suite is None:
        raise SystemExit2("verify requires --suite")
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


# --flag value pairs after the subcommand: flag -> (dest, kind, default), a
# kind being int, str or the tuple of allowed values
_WEIGHT = {"--s": ("s", int, 0), "--t": ("t", int, 0)}
_OUT = {"--out": ("out", str, None)}
FORMATS = ("table", "json")
HELP = ("-h", "--help")


def build_parser() -> dict:
    """The flag table: subcommand -> (summary, handler, flags).  The handlers
    are looked up on each call, so a replaced ``cmd_*`` is the one run."""
    return {
        "crystal": ("enumerate a crystal or Demazure crystal", cmd_crystal, {
            **_WEIGHT, "--format": ("format", FORMATS + ("dot",), "table"), **_OUT,
            "-L": ("L", int, None), "--word": ("word", str, None)}),
        "character": ("compute a character by a chosen route", cmd_character, {
            **_WEIGHT, "--format": ("format", FORMATS, "table"), **_OUT,
            "-L": ("L", int, None), "--route": ("route", tuple(ch.ROUTES), "recursive")}),
        "oracle": ("Demazure-operator character for a word", cmd_oracle, {
            **_WEIGHT, "--format": ("format", FORMATS, "table"), **_OUT,
            "--word": ("word", str, None)}),
        "verify": ("run a verification suite", cmd_verify, {
            "--suite": ("suite", tuple(sorted(verify.SUITES)), None),
            "--max-k": ("max_k", int, 2), "--max-L": ("max_L", int, 4), **_OUT}),
    }


def _usage(table, command=None) -> str:
    if command is None:
        lines = [f"usage: demcrystal {{{','.join(table)}}} [--flag value ...]",
                 "Demazure crystals and characters for affine sl(2)."]
        lines += [f"  {name:<10} {summary}" for name, (summary, _, _) in table.items()]
    else:
        summary, _, flags = table[command]
        lines = [f"usage: demcrystal {command} [--flag value ...]", summary]
        for flag, (_, kind, default) in flags.items():
            shown = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else kind.__name__.upper()
            lines.append(f"  {flag} {shown}" + ("" if default is None else f"  (default {default})"))
    return "\n".join(lines) + "\n"


def parse_args(table, argv):
    """The request ``argv`` names, with every flag it leaves out at its
    default; the usage text if it asks for help.  Each flag is given at most
    once, in full, as ``--flag value`` or ``--flag=value``."""
    if not argv or argv[0] in HELP:
        if argv:
            return _usage(table)
        raise SystemExit2(f"missing subcommand, choose from {', '.join(table)}")
    command, words = argv[0], iter(argv[1:])
    if command not in table:
        raise SystemExit2(f"unknown subcommand {command!r}, choose from {', '.join(table)}")
    flags = table[command][2]
    values = {"command": command}
    for word in words:
        if word in HELP:
            return _usage(table, command)
        flag, eq, value = word.partition("=")
        if flag not in flags:
            raise SystemExit2(f"{command}: unknown argument {word!r}")
        dest, kind, _ = flags[flag]
        if dest in values:
            raise SystemExit2(f"{flag} given twice")
        if not eq:  # the value is the next word, which may be "-1" but no flag
            value = next(words, None)
            if value is None or value.partition("=")[0] in flags:
                raise SystemExit2(f"{flag} needs a value")
        if kind is int:  # ASCII digits after an optional "-", as in w+L
            digits = value[1:] if value.startswith("-") else value
            if not (digits.isascii() and digits.isdigit()):
                raise SystemExit2(f"{flag}: invalid int value {value!r}")
            value = int(value)
        elif kind is not str and value not in kind:
            raise SystemExit2(f"{flag}: invalid choice {value!r}, choose from {', '.join(kind)}")
        values[dest] = value
    for dest, _, default in flags.values():
        values.setdefault(dest, default)
    return SimpleNamespace(**values)


def _to_file(handler, args) -> int:
    """Run ``handler`` into a buffer and write it to ``args.out`` only if it
    succeeds.  The path is opened before any work, so one that cannot be
    opened is refused at once; a file that opening created (at a dangling
    link, its target) is removed again if the request is then refused or faults."""
    created = not os.path.exists(args.out)
    open(args.out, "a").close()
    try:
        sink = io.StringIO()
        code = handler(args, sink)
        with open(args.out, "w") as f:
            f.write(sink.getvalue())
        return code
    except BaseException:
        if created:
            os.remove(os.path.realpath(args.out))
        raise


def main(argv=None) -> int:
    # a sink that cannot be opened or written is a usage error, not a fault
    try:
        table = build_parser()
        args = parse_args(table, sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):
            sys.stdout.write(args)
            return EXIT_OK
        handler = table[args.command][1]
        if args.out is not None:
            return _to_file(handler, args)
        return handler(args, sys.stdout)
    except (SystemExit2, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
