"""The library's exactness contract, checked on its source: no ``assert``
statement (``python -O`` strips them), no float literal, no ``float(`` call,
no true division ``/`` and no ``random`` import (every result and every
verification grid is deterministic) anywhere in ``src/demcrystal``, and no
``Fraction`` outside ``qlaurent._quarters``; no route to f^(k)_L or to
the fermionic F-sum built on another of them, and no Demazure character
route built on another; no memo on any cross-checked character route,
crystal operator, crystal generator or path weight, and none at all but
on the pinned building blocks and f_recursive; no room for one on a
diagram tuple; a route table that matches its hand-written pin; and no
default argument but a constant, so no function binds a route, or any
other object, when it is defined."""
import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "demcrystal").glob("*.py"))


def violations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert statement"
        elif isinstance(node, ast.Constant) and type(node.value) is float:
            yield node.lineno, f"float literal {node.value!r}"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            yield node.lineno, "float() call"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno, "true division"
        elif isinstance(node, ast.Import) and any(a.name == "random" for a in node.names) or (
            isinstance(node, ast.ImportFrom) and node.module == "random"
        ):
            yield node.lineno, "random import"


def test_sources_found():
    assert len(SOURCES) >= 9


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_exact_and_optimization_safe(path):
    found = [f"{path.name}:{line}: {what}" for line, what in violations(ast.parse(path.read_text()))]
    assert found == []


def test_rules_catch_each_pattern():
    source = (
        "assert x\ny = 0.5\nz = float(1)\nw = 1 / 2\nw /= 3\nv = 7 // 2\n"
        "import os, random as r\nfrom random import Random\nimport secrets\nfrom . import randomness\n"
    )
    assert [what for _, what in sorted(violations(ast.parse(source)))] == [
        "assert statement", "float literal 0.5", "float() call", "true division", "true division",
        "random import", "random import",
    ]


# Exponents are quarter-unit ints everywhere in the library; the one place a
# rational q-exponent is parsed is qlaurent._quarters, at the ring boundary.
FRACTION_OWNER = ("qlaurent.py", "_quarters")


def fraction_uses(tree, owner=None):
    """(line, what) for each import or mention of Fraction outside the
    function named owner; with an owner, its module may also import
    Fraction (and nothing else) from fractions."""
    allowed = set()
    for node in ast.walk(tree):
        if owner and (
            isinstance(node, ast.FunctionDef) and node.name == owner
            or isinstance(node, ast.ImportFrom) and node.module == "fractions"
            and [(a.name, a.asname) for a in node.names] == [("Fraction", None)]
        ):
            allowed.update(map(id, ast.walk(node)))
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, ast.ImportFrom) and (
            node.module == "fractions" or any(a.name == "Fraction" for a in node.names)
        ) or isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names):
            yield node.lineno, "Fraction import"
        elif isinstance(node, ast.Name) and node.id == "Fraction" or (
            isinstance(node, ast.Attribute) and node.attr == "Fraction"
        ):
            yield node.lineno, "Fraction use"


def test_fraction_only_in_quarters():
    module, owner = FRACTION_OWNER
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        uses = fraction_uses(tree, owner if path.name == module else None)
        found += [f"{path.name}:{line}: {what}" for line, what in uses]
    assert found == []
    # the exemption names a function that exists
    assert f"def {owner}(" in (SOURCES[0].parent / module).read_text()


def test_fraction_rule_catches_the_pattern():
    source = (
        "from fractions import Fraction\n"
        "import fractions\n"
        "def _quarters(v):\n    return Fraction(v)\n"
        "def f_bosonic(k):\n    return p.q_shift(Fraction(k, 4))\n"
        "def other(k):\n    return fractions.Fraction(k, 4)\n"
        "def ch_via_f(j):\n    def inner():\n        return Fraction(j, 2)\n    return inner\n"
    )
    strays = [(2, "Fraction import"), (6, "Fraction use"), (8, "Fraction use"), (11, "Fraction use")]
    assert sorted(fraction_uses(ast.parse(source), "_quarters")) == strays
    # without the exemption the owner's import and body are strays too
    assert sorted(fraction_uses(ast.parse(source))) == sorted(strays + [(1, "Fraction import"), (4, "Fraction use")])


# The routes that exist to check each other may not be built on each other.
# Each group pairs its routes with the names they may not mention: the f
# routes may not name ch_via_f either, while f_rank_reduction and ch_via_f
# are built on f by definition and are exempt; the Demazure triangle's three
# routes are compared with each other by A4.
INDEPENDENT_ROUTES = ("f_recursive", "f_bosonic", "f_fermionic", "F_fermionic")
DEMAZURE_ROUTES = ("demazure_ch", "demazure_ch_bruteforce", "demazure_ch_oracle")
ROUTE_GROUPS = (
    (INDEPENDENT_ROUTES, INDEPENDENT_ROUTES + ("ch_via_f",)),
    (DEMAZURE_ROUTES, DEMAZURE_ROUTES),
)


def route_crossings(tree):
    """(line, what) for each mention, inside a route's definition, of a
    name its group bans, other than its own."""
    for node in ast.walk(tree):
        for routes, names in ROUTE_GROUPS:
            if isinstance(node, ast.FunctionDef) and node.name in routes:
                banned = set(names) - {node.name}
                for inner in ast.walk(node):
                    # a Name's id or an Attribute's attr
                    name = getattr(inner, "id", None) or getattr(inner, "attr", None)
                    if name in banned:
                        yield inner.lineno, f"{node.name} names {name}"


def test_routes_stay_independent():
    found, defined = [], set()
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        found += [f"{path.name}:{line}: {what}" for line, what in route_crossings(tree)]
        defined |= {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert found == []
    # the rule guards routes that exist
    assert set(INDEPENDENT_ROUTES + DEMAZURE_ROUTES) <= defined


def test_route_rule_catches_the_pattern():
    source = (
        "def f_recursive(k):\n    return f_recursive(k - 1)\n"
        "def F_fermionic(lam):\n    return ch.f_recursive(1, lam)\n"
        "def f_bosonic(k, impl=f_fermionic):\n    return ch_via_f(k, impl)\n"
        "def ch_via_f(lam, f_impl=f_recursive):\n    return f_impl(lam)\n"
        "def f_rank_reduction(k):\n    return f_recursive(k - 1)\n"
        "def demazure_ch(lam):\n    return ch_via_f(lam)\n"
        "def demazure_ch_oracle(lam, sign, L):\n    return ch.demazure_ch(lam, sign, L)\n"
    )
    assert sorted(route_crossings(ast.parse(source))) == [
        (4, "F_fermionic names f_recursive"),
        (5, "f_bosonic names f_fermionic"),
        (6, "f_bosonic names ch_via_f"),
        (14, "demazure_ch_oracle names demazure_ch"),
    ]


# A default is evaluated once, when its function is defined.  A route named
# as a default, as in ch_via_f(lam, L, f_impl=f_recursive), would be bound
# then, so a patched or stubbed module global would never reach the call;
# a mutable default would be shared by every call.  Defaults are None, an
# int, a str, a bool or the empty tuple, and a function that wants a route
# looks the route up when it is called.
CONSTANT_DEFAULTS = (type(None), int, str, bool)


def nonconstant_defaults(tree):
    """(line, what) for each default argument, of a def or a lambda, that
    is neither a constant of CONSTANT_DEFAULTS nor the empty tuple."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for d in node.args.defaults + [d for d in node.args.kw_defaults if d is not None]:
                try:
                    value = ast.literal_eval(d)
                except ValueError:  # a name, an attribute, a call, ...
                    value = d
                if type(value) not in CONSTANT_DEFAULTS and value != ():
                    yield d.lineno, f"default {ast.unparse(d)}"


def test_defaults_are_constants():
    found = []
    for path in SOURCES:
        found += [f"{path.name}:{line}: {what}" for line, what in nonconstant_defaults(ast.parse(path.read_text()))]
    assert found == []


def test_default_rule_catches_the_pattern():
    source = (
        "def ch_via_f(lam, L, f_impl=f_recursive):\n    pass\n"
        "def ok(a=None, b=0, c='x', d=True, e=(), *, f=None, g):\n    pass\n"
        "def bad(a=[], b={}, *, c=(1,), d=ch.f_bosonic):\n    pass\n"
        "key = lambda z, q4, f=f_recursive: f(z)\n"
        "def other(a=0.5, b=-1, c=b'x', d=frozenset()):\n    pass\n"
    )
    assert sorted(nonconstant_defaults(ast.parse(source))) == sorted([
        (1, "default f_recursive"),
        (5, "default []"), (5, "default {}"), (5, "default (1,)"), (5, "default ch.f_bosonic"),
        (7, "default f_recursive"),
        (8, "default 0.5"), (8, "default b'x'"), (8, "default frozenset()"),
    ])


# The route table, pinned by hand: name -> (least L, whether it gives the path
# character).  A route dropped from, renamed in or moved within
# characters.ROUTES fails here instead of silently leaving the CLI, the
# path-character records and the CLI corpus.
ROUTE_PINS = [
    ("path", 0, True), ("recursive", 0, True), ("bosonic", 1, True), ("fermionic", 0, True),
    ("demazure+", 1, False), ("demazure-", 1, False), ("oracle", 0, False),
]


def test_route_table_matches_the_pins():
    from demcrystal.characters import ROUTES

    assert [(name, least, path) for name, (least, path, _) in ROUTES.items()] == ROUTE_PINS


# A memo on a cross-checked route would let a check read back a stored
# result in place of a fresh computation: A3 compares the path characters,
# A4 the Demazure triangle.  f_recursive is memoized by definition (its
# recursion reads its own earlier values) and is exempt.
# The crystal operators and generators are cross-checked routes too: the
# EYD kernel and pi may memoize per-diagram geometry on the diagram, never a
# tuple or a crystal, and the brute-force characters read each path's
# energy and weight afresh.  The Demazure-operator oracle checks both, and
# recomputes every call too.
UNMEMOIZED_ROUTES = (
    "f_bosonic", "f_fermionic", "F_fermionic", "f_rank_reduction",
    "ch_via_f", "ch_path_bruteforce",
    "demazure_ch", "demazure_ch_bruteforce", "demazure_ch_oracle",
    "generate_crystal", "demazure_crystal_recursive", "demazure_crystal_direct", "f_tilde", "e_tilde",
    "epsilon_i", "pi", "energy", "path_weight",
    "demazure_operator", "demazure_character_oracle",
)
MEMO_DECORATORS = ("lru_cache", "cache")


def memoized_routes(tree):
    """(line, what) for each memo decorator on, or assignment to the name
    of, a route that must recompute on every call."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in UNMEMOIZED_ROUTES:
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                if (getattr(target, "id", None) or getattr(target, "attr", None)) in MEMO_DECORATORS:
                    yield dec.lineno, f"{node.name} is memoized"
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if getattr(target, "id", None) in UNMEMOIZED_ROUTES:
                    yield node.lineno, f"{target.id} is rebound"


def test_cross_checked_routes_are_not_memoized():
    found, defined = [], set()
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        found += [f"{path.name}:{line}: {what}" for line, what in memoized_routes(tree)]
        defined |= {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert found == []
    # the rule guards functions that exist
    assert set(UNMEMOIZED_ROUTES) <= defined


def test_memo_rule_catches_the_pattern():
    source = (
        "import functools\nfrom functools import cache, lru_cache\n"
        "@lru_cache(maxsize=None)\ndef f_bosonic(k):\n    pass\n"
        "@functools.cache\ndef f_fermionic(k):\n    pass\n"
        "@staticmethod\n@cache\ndef F_fermionic(lam):\n    pass\n"
        "@lru_cache(maxsize=None)\ndef f_recursive(k):\n    pass\n"
        "@lru_cache(maxsize=None)\ndef occupation_vectors(k):\n    pass\n"
        "f_fermionic = functools.lru_cache(None)(f_fermionic)\n"
        "@functools.lru_cache(maxsize=None)\ndef generate_crystal(lam, L):\n    pass\n"
        "@lru_cache(maxsize=None)\ndef _corner_entries(pos, charge, columns):\n    pass\n"
        "f_tilde = cache(f_tilde)\n"
        "demazure_character_oracle = lru_cache(None)(demazure_character_oracle)\n"
        "@lru_cache(maxsize=None)\ndef demazure_ch(lam, sign, L):\n    pass\n"
        "ch_via_f = cache(ch_via_f)\n"
        "@lru_cache(maxsize=None)\ndef energy(p, lam):\n    pass\n"
        "path_weight = cache(path_weight)\n"
        "@functools.lru_cache\ndef epsilon_i(T, i):\n    pass\n"
    )
    assert sorted(memoized_routes(ast.parse(source))) == [
        (3, "f_bosonic is memoized"),
        (6, "f_fermionic is memoized"),
        (10, "F_fermionic is memoized"),
        (19, "f_fermionic is rebound"),
        (20, "generate_crystal is memoized"),
        (26, "f_tilde is rebound"),
        (27, "demazure_character_oracle is rebound"),
        (28, "demazure_ch is memoized"),
        (31, "ch_via_f is rebound"),
        (32, "energy is memoized"),
        (35, "path_weight is rebound"),
        (36, "epsilon_i is memoized"),
    ]


# The deny-list above names routes; a memo on a new name would escape it.  So
# every memo in src/ is also pinned by name: f_recursive, whose recursion
# reads its own values, and pure building blocks of the routes, which hold
# no value of f.  No memo but f_recursive may name an f route or ch_via_f,
# so no building block can carry a route's result to another route.
MEMOIZED = (
    "qpoch", "gaussian", "_q_multinomial", "f_recursive", "occupation_vectors",
    "resolve_mu_nu", "_gaussian_pair",
)
F_ROUTE_NAMES = ("f_recursive", "f_bosonic", "f_fermionic", "f_rank_reduction", "F_fermionic", "ch_via_f")


def _is_memo(node) -> bool:
    """Whether node is a memo decorator, bare or called, by any module path."""
    target = node.func if isinstance(node, ast.Call) else node
    return (getattr(target, "id", None) or getattr(target, "attr", None)) in MEMO_DECORATORS


def memos(tree):
    """(line, name, node) for each memo: a memo decorator on a def (the def
    is the node), or an assignment of a memo call (the call is the node)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                if _is_memo(dec):
                    yield dec.lineno, node.name, node
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call) and _is_memo(node.value.func):
            for target in node.targets:
                yield node.lineno, ast.unparse(target), node.value


def memo_violations(tree):
    """(line, what) for each memo not in MEMOIZED, and each mention of an
    f route inside a memo other than f_recursive."""
    for line, name, node in memos(tree):
        if name not in MEMOIZED:
            yield line, f"{name} is memoized"
        if name != "f_recursive":
            for inner in ast.walk(node):
                mentioned = getattr(inner, "id", None) or getattr(inner, "attr", None)
                if mentioned in F_ROUTE_NAMES:
                    yield inner.lineno, f"memo {name} names {mentioned}"


def test_only_pinned_building_blocks_are_memoized():
    found, names = [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        found += [f"{path.name}:{line}: {what}" for line, what in memo_violations(tree)]
        names += [name for _, name, _ in memos(tree)]
    assert found == []
    # each pin is one memo that exists
    assert sorted(names) == sorted(MEMOIZED)


def test_memo_pin_rule_catches_the_pattern():
    source = (
        "import functools\nfrom functools import cache, lru_cache\n"
        "_cached = lru_cache(None)(f_bosonic)\n"
        "@functools.lru_cache(maxsize=None)\ndef _pair_sum(L, i):\n    return f_fermionic(1, L, i, i)\n"
        "@lru_cache(maxsize=None)\ndef _gaussian_pair(L, i, j):\n    return gaussian(L - 1, i) * gaussian(L, j)\n"
        "@cache\ndef occupation_vectors(k, L, b):\n    return ch.F_fermionic(k, L, b)\n"
        "@lru_cache(maxsize=None)\ndef f_recursive(k, L, b, c):\n    return f_recursive(k, L - 1, b, c)\n"
        "gaussian = functools.cache(gaussian)\n"
        "f_tilde = cache(f_tilde)\n"
        "def resolve_mu_nu(k, L, b, c):\n    return f_bosonic(k, L, b, c)\n"
    )
    assert sorted(memo_violations(ast.parse(source))) == [
        (3, "_cached is memoized"),
        (3, "memo _cached names f_bosonic"),
        (4, "_pair_sum is memoized"),
        (6, "memo _pair_sum names f_fermionic"),
        (12, "memo occupation_vectors names F_fermionic"),
        (17, "f_tilde is memoized"),
    ]


# A memo on an EYDTuple would hold a tuple-level result; the only storage
# an instance has is its diagrams and its hash.
TUPLE_STORAGE = ["_hash", "diagrams"]


def instance_storage(cls):
    """The names an instance of cls can store: the slots along its MRO,
    plus "__dict__" for each class there that declares no __slots__."""
    names = []
    for klass in cls.__mro__[:-1]:  # object's instances store nothing
        slots = klass.__dict__.get("__slots__", ("__dict__",))
        names += [slots] if isinstance(slots, str) else list(slots)
    return sorted(names)


def test_tuples_have_no_room_for_a_memo():
    from demcrystal.eyd import EYDTuple

    assert instance_storage(EYDTuple) == TUPLE_STORAGE


def test_storage_rule_catches_the_pattern():
    class Slotted:
        __slots__ = ("diagrams", "_hash")

    class Memo(Slotted):
        __slots__ = "_weight"

    class Plain(Slotted):
        pass

    assert instance_storage(Slotted) == TUPLE_STORAGE
    assert instance_storage(Memo) == ["_hash", "_weight", "diagrams"]
    assert instance_storage(Plain) == ["__dict__", "_hash", "diagrams"]
