"""Command-line interface: crystals, characters, verification suites, oracle."""
from __future__ import annotations

import argparse
import json
import random
import sys

from . import characters as ch
from .demazure import (
    demazure_crystal_direct,
    demazure_crystal_recursive,
    export_graph,
    generate_crystal,
    subgraph,
)
from .eyd import EYDTuple
from .paths import ground_state_H_sum, ground_state_H_sum_direct
from .qlaurent import verify_gaussian_lemma
from .weights import (
    Weight,
    demazure_character_oracle,
    parse_weyl_word,
    specialize,
    weyl_word_minus,
    weyl_word_plus,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _weight(args) -> Weight:
    if args.s < 0 or args.t < 0 or args.s + args.t < 1:
        raise SystemExit2("need s, t >= 0 with s + t >= 1")
    return Weight(args.s, args.t, 0)


class SystemExit2(Exception):
    pass


def cmd_character(args, out) -> int:
    lam = _weight(args)
    if args.L is None:
        raise SystemExit2("character requires -L")
    route = args.route
    if route == "path":
        poly = ch.ch_path_bruteforce(lam, args.L)
    elif route == "recursive":
        poly = ch.ch_via_f(lam, args.L, ch.f_recursive)
    elif route == "bosonic":
        poly = ch.ch_via_f(lam, args.L, ch.f_bosonic)
    elif route == "fermionic":
        poly = ch.ch_via_f(lam, args.L, ch.f_fermionic)
    elif route == "demazure+":
        poly = ch.demazure_ch(lam, "+", args.L)
    elif route == "demazure-":
        poly = ch.demazure_ch(lam, "-", args.L)
    elif route == "oracle":
        word = parse_weyl_word(args.word) if args.word else weyl_word_plus(args.L)
        poly = specialize(demazure_character_oracle(lam, word), lam)
    else:
        raise SystemExit2(f"unknown route {route!r}")
    if args.format == "json":
        out.write(json.dumps(poly.to_json_obj(), sort_keys=True) + "\n")
    else:
        out.write(poly.to_text() + "\n")
    return EXIT_OK


def cmd_oracle(args, out) -> int:
    lam = _weight(args)
    if not args.word:
        raise SystemExit2("oracle requires --word")
    word = parse_weyl_word(args.word)
    poly = specialize(demazure_character_oracle(lam, word), lam)
    if args.format == "json":
        out.write(json.dumps(poly.to_json_obj(), sort_keys=True) + "\n")
    else:
        out.write(poly.to_text() + "\n")
    return EXIT_OK


def cmd_crystal(args, out) -> int:
    lam = _weight(args)
    if args.word:
        word = parse_weyl_word(args.word)
        verts = demazure_crystal_recursive(lam, word)
        G = subgraph(generate_crystal(lam, len(word)), verts)
    elif args.L is not None:
        G = generate_crystal(lam, args.L)
    else:
        raise SystemExit2("crystal requires --word or -L")
    if args.format == "table":
        for T in sorted(G.vertices, key=EYDTuple.key):
            wt = T.weight()
            out.write(f"{T.key()}  wt=({wt.a0},{wt.a1},{wt.d})\n")
        out.write(f"total {len(G.vertices)}\n")
    else:
        out.write(export_graph(G, args.format))
    return EXIT_OK


# -- verification suites -------------------------------------------------------

def _weights_up_to(k_max: int):
    for s in range(k_max + 1):
        for t in range(k_max + 1 - s):
            if s + t >= 1:
                yield Weight(s, t, 0)


def suite_boson_fermion(max_k: int, max_L: int, out, seed: int) -> bool:
    ok = True
    for k in range(1, max_k + 1):
        for L in range(1, max_L + 1):
            good = True
            for b in range(-L * k, L * k + 1):
                for c in range(b - k, b + k + 1, 2):
                    if abs(c) > (L + 1) * k:
                        continue
                    fr = ch.f_recursive(k, L, b, c)
                    if ch.f_bosonic(k, L, b, c) != fr or ch.f_fermionic(k, L, b, c) != fr:
                        good = False
                        out.write(f"FAIL k={k} L={L} b={b} c={c}\n")
                        break
                if not good:
                    break
            out.write(f"boson-fermion k={k} L={L}: {'pass' if good else 'FAIL'}\n")
            ok = ok and good
    return ok


def suite_demazure_crystal(max_k: int, max_L: int, out, seed: int) -> bool:
    ok = True
    for lam in _weights_up_to(max_k):
        for L in range(1, max_L + 1):
            rec_p = demazure_crystal_recursive(lam, weyl_word_plus(L))
            rec_m = demazure_crystal_recursive(lam, weyl_word_minus(L))
            dir_p = demazure_crystal_direct(lam, "+", L)
            dir_m = demazure_crystal_direct(lam, "-", L)
            full = generate_crystal(lam, L).vertices
            prev = generate_crystal(lam, L - 1).vertices
            good = (
                rec_p == dir_p
                and rec_m == dir_m
                and dir_p | dir_m == full
                and dir_p & dir_m == prev
            )
            if lam.a1 == 0:
                good = good and dir_p == full
            if lam.a0 == 0:
                good = good and dir_m == full
            out.write(
                f"demazure-crystal s={lam.a0} t={lam.a1} L={L}: "
                f"{'pass' if good else 'FAIL'}\n"
            )
            ok = ok and good
    return ok


def suite_demazure_character(max_k: int, max_L: int, out, seed: int) -> bool:
    ok = True
    for lam in _weights_up_to(max_k):
        for L in range(1, max_L + 1):
            for sign in ("+", "-"):
                a = ch.demazure_ch(lam, sign, L)
                b = ch.demazure_ch_bruteforce(lam, sign, L)
                c = ch.demazure_ch_oracle(lam, sign, L)
                good = a == b == c
                out.write(
                    f"demazure-character s={lam.a0} t={lam.a1} sign={sign} L={L}: "
                    f"{'pass' if good else 'FAIL'}\n"
                )
                ok = ok and good
    return ok


def suite_specializations(max_k: int, max_L: int, out, seed: int) -> bool:
    ok = True
    for lam in _weights_up_to(max_k):
        for L in range(1, max_L + 1):
            good = ch.real_character_check(lam, L)
            out.write(
                f"real s={lam.a0} t={lam.a1} L={L}: {'pass' if good else 'FAIL'}\n"
            )
            ok = ok and good
    for k in range(1, max_k + 1):
        for L in range(1, max_L + 1):
            good = ch.principal_character_check(k, L)
            out.write(f"principal k={k} L={L}: {'pass' if good else 'FAIL'}\n")
            ok = ok and good
    return ok


def suite_sanderson(max_k: int, max_L: int, out, seed: int) -> bool:
    ok = True
    for k in range(1, max_k + 1):
        for L in range(0, max_L + 1):
            good = ch.sanderson_identity_check(k, L)
            out.write(f"sanderson k={k} L={L}: {'pass' if good else 'FAIL'}\n")
            ok = ok and good
    return ok


def suite_lemmas(max_k: int, max_L: int, out, seed: int) -> bool:
    ok = True
    for s in range(max_k + 1):
        for t in range(max_k + 1 - s):
            if s + t < 1:
                continue
            for L in range(0, max_L + 1):
                lam = Weight(s, t, 0)
                good = ground_state_H_sum(lam, L) == ground_state_H_sum_direct(lam, L)
                if not good:
                    out.write(f"FAIL gse s={s} t={t} L={L}\n")
                ok = ok and good
    out.write(f"lemmas gse: {'pass' if ok else 'FAIL'}\n")
    rng = random.Random(seed)
    gaussian_ok = True
    for _ in range(200):
        M = rng.randint(-6, 8)
        N = rng.randint(-6, 8)
        if M < 0 and N < 0:
            M = -M
        n = rng.randint(0, 8)
        if not verify_gaussian_lemma(M, N, n):
            gaussian_ok = False
            out.write(f"FAIL gaussian-lemma M={M} N={N} n={n}\n")
    out.write(f"lemmas gaussian: {'pass' if gaussian_ok else 'FAIL'}\n")
    return ok and gaussian_ok


SUITES = {
    "boson-fermion": suite_boson_fermion,
    "demazure-crystal": suite_demazure_crystal,
    "demazure-character": suite_demazure_character,
    "specializations": suite_specializations,
    "sanderson": suite_sanderson,
    "lemmas": suite_lemmas,
}


def cmd_verify(args, out) -> int:
    if args.suite not in SUITES:
        raise SystemExit2(f"unknown suite {args.suite!r}")
    ok = SUITES[args.suite](args.max_k, args.max_L, out, args.seed)
    out.write(f"suite {args.suite}: {'PASS' if ok else 'FAIL'}\n")
    return EXIT_OK if ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="demcrystal",
        description="Demazure crystals and characters for affine sl(2).",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, need_L=True):
        sp.add_argument("--s", type=int, default=0)
        sp.add_argument("--t", type=int, default=0)
        if need_L:
            sp.add_argument("-L", type=int, default=None)
        sp.add_argument("--word", type=str, default=None)
        sp.add_argument(
            "--format", choices=("table", "json", "dot"), default="table"
        )
        sp.add_argument("--out", type=str, default=None)

    sp = sub.add_parser("crystal", help="enumerate a crystal or Demazure crystal")
    common(sp)

    sp = sub.add_parser("character", help="compute a character by a chosen route")
    common(sp)
    sp.add_argument(
        "--route",
        choices=(
            "path",
            "recursive",
            "bosonic",
            "fermionic",
            "demazure+",
            "demazure-",
            "oracle",
        ),
        default="recursive",
    )

    sp = sub.add_parser("oracle", help="Demazure-operator character for a word")
    common(sp, need_L=False)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("--suite", required=True, choices=sorted(SUITES))
    sp.add_argument("--max-k", type=int, default=2)
    sp.add_argument("--max-L", type=int, default=4)
    sp.add_argument("--seed", type=int, default=0)
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
    sink = sys.stdout
    close = False
    if getattr(args, "out", None):
        sink = open(args.out, "w")
        close = True
    try:
        return handlers[args.command](args, sink)
    except SystemExit2 as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if close:
            sink.close()


if __name__ == "__main__":
    sys.exit(main())
