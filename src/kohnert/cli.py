"""Command line front end.

Subcommands wrap the library: ``kd`` lists move closures, ``poly``
prints polynomials as JSON, ``expand`` prints basis expansions,
``crystal`` emits an annotated DOT graph, ``verify`` runs the
verification sweeps, ``membership`` decides closure membership.

``main(argv)`` may be called any number of times in one process.  The
parser is built on the first call, not at import, and reused; ``main``
reaches each command through its module-level name at call time, so a
command replaced on the module is the one the next call runs.  A one-shot
``kohnert`` process builds the parser once either way.

Exit codes: 0 success, 1 verification or precondition failure,
2 usage or parse error, 3 resource bound exceeded.
"""

from __future__ import annotations

import argparse
import re
import sys
from collections import Counter
from functools import cache, partial
from pathlib import Path

from .compositions import check_composition
from .crystal import _crystal, crystal_to_dot
from .diagrams import Diagram, GridParseError, composition_diagram, \
    is_southwest, rothe_diagram
from .labeling import _expansion, _membership, _rectified_component, label_grid
from .moves import MaxDiagramsError, ResourceBoundError, _max_diagrams, _polynomial, \
    generate_kd, kd_to_dot, kd_to_json, kohnert_polynomial
from .perms import check_permutation
from .polynomials import basis_sum, demazure_character, fundamental_slide, \
    schubert_polynomial
from .verify import SUITES, _check_budget, run_suite, suite_bounds


class UsageError(ValueError):
    """Bad inline value for a flag; maps to exit code 2."""


def _parse_ints(text: str, check, noun: str) -> tuple[int, ...]:
    """Comma-separated integers that ``check`` accepts, else a usage error."""
    try:
        parts = tuple(int(x) for x in text.split(",")) if text else ()
        return check(parts)
    except ValueError:
        raise UsageError(f"not {noun}: {text!r}")


_parse_comp = partial(_parse_ints, check=check_composition, noun="a composition")
_parse_perm = partial(_parse_ints, check=check_permutation,
                      noun="a permutation in one-line notation")


def _parse_box(text: str) -> tuple[int, int]:
    m = re.fullmatch(r"(\d+)x(\d+)", text)
    if not m or min(int(m.group(1)), int(m.group(2))) < 1:
        raise argparse.ArgumentTypeError(
            f"expected COLSxROWS with both sides at least 1, got {text!r}")
    return int(m.group(1)), int(m.group(2))


def _int_at_least(low: int, kind: str):
    """An argparse type for integers of at least ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text!r}")
        return value
    return parse


_positive_int = _int_at_least(1, "positive")
_nonnegative_int = _int_at_least(0, "nonnegative")


def _read_diagram_file(path: str) -> Diagram:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise GridParseError(f"{path}: not UTF-8 text (byte offset {exc.start})") from None
    return Diagram.from_grid(text)


def _add_diagram_source(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", metavar="FILE",
                       help="diagram in grid format ('O' cell, '.' empty)")
    group.add_argument("--comp", metavar="A",
                       help="composition diagram of A, like 0,3,1,1")
    group.add_argument("--perm", metavar="W",
                       help="Rothe diagram of W in one-line notation, like 1,3,2")


def _load_diagram(args) -> Diagram:
    if args.input is not None:
        return _read_diagram_file(args.input)
    if args.comp is not None:
        return composition_diagram(_parse_comp(args.comp))
    return rothe_diagram(_parse_perm(args.perm))


def cmd_kd(args) -> int:
    d = _load_diagram(args)
    kset = generate_kd(d, args.max_diagrams)
    if args.json:
        print(kd_to_json(kset))
        return 0
    if args.dot:
        sys.stdout.write(kd_to_dot(kset))
        return 0
    count = len(kset.states)
    print(f"{count} diagram" + ("" if count == 1 else "s"))
    if args.list:
        for n in range(count):
            print()
            print(kset.grid(n))
    return 0


def cmd_poly(args) -> int:
    if args.n is not None:
        _check_budget([args.n], f"--n {args.n} asks for", "variables")
    limit = _max_diagrams(args.max_diagrams)
    if args.diagram is not None:
        d = _read_diagram_file(args.diagram)
        f = kohnert_polynomial(d, args.n, limit)
    elif args.perm is not None:
        f = schubert_polynomial(_parse_perm(args.perm), limit)
        if args.n is not None:
            f = f.pad_to(args.n)
    elif args.key is not None:
        f = demazure_character(_parse_comp(args.key), args.n, limit)
    else:
        f = fundamental_slide(_parse_comp(args.slide), args.n, limit)
    print(f.to_json())
    return 0


def cmd_expand(args) -> int:
    d = _load_diagram(args)
    if not is_southwest(d):
        raise ValueError("diagram is not southwest")
    expansion, counts = _expansion(d, args.basis, args.max_diagrams)
    for comp, count in sorted(Counter(expansion).items()):
        suffix = f" x{count}" if count > 1 else ""
        print(",".join(map(str, comp)) + suffix)
    if args.check:
        n = d.max_row
        total = basis_sum(expansion, args.basis, n)
        if not total.matches(_polynomial(d, counts, n)):
            print("check: FAIL, expansion does not reproduce the polynomial")
            return 1
        print("check: OK")
    return 0


def cmd_crystal(args) -> int:
    d = _load_diagram(args)
    if not is_southwest(d):
        raise ValueError("diagram is not southwest")
    kset = generate_kd(d, args.max_diagrams)
    states, width, ncols = kset.states, d.max_row + 1, d.max_col
    edges, groups, highest = _crystal(states, d)
    labels, flips = [], {}          # one rectification memo for every component
    for group, top in zip(groups, highest, strict=True):
        data = _rectified_component([states[n] for n in group], states[top],
                                    width, ncols, d, flips)
        lam, w, a = (",".join(map(str, part)) for part in data[:3])
        labels.append(f"lam=({lam}) w=({w}) a=({a})")
    sys.stdout.write(crystal_to_dot(kset, edges, groups, labels))
    return 0


def cmd_verify(args) -> int:
    bounds = {key: value for key, value in vars(args).items()
              if value is not None and key not in ("command", "suite")}
    if args.suite == "all":
        names = list(SUITES)
    else:
        names = [args.suite]
        taken = suite_bounds(args.suite)
        for key in bounds:
            if key not in taken:
                raise UsageError(f"--{key.replace('_', '-')} does not apply "
                                 f"to suite {args.suite}")
    failed = False
    for name in names:
        result = run_suite(name, **bounds)
        print(result.summary())
        failed = failed or not result.ok
    return 1 if failed else 0


def cmd_membership(args) -> int:
    t = _read_diagram_file(args.t_file)
    d = _read_diagram_file(args.d_file)
    labels, reason = _membership(t, d)
    if labels is not None:
        print("member")
        if args.explain:
            print(label_grid(labels) or "(empty)")
    else:
        print(f"non-member: {reason}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kohnert",
        description="Kohnert diagrams, polynomials, and crystals.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_kd = sub.add_parser("kd", help="generate a move closure")
    _add_diagram_source(p_kd)
    kd_format = p_kd.add_mutually_exclusive_group()
    kd_format.add_argument("--list", action="store_true",
                           help="print every member as a grid")
    kd_format.add_argument("--json", action="store_true",
                           help="print members and move edges as JSON")
    kd_format.add_argument("--dot", action="store_true",
                           help="print the move graph in DOT format")
    p_kd.add_argument("--max-diagrams", type=_positive_int, default=None)

    p_poly = sub.add_parser("poly", help="print a polynomial as JSON")
    group = p_poly.add_mutually_exclusive_group(required=True)
    group.add_argument("--diagram", metavar="FILE",
                       help="Kohnert polynomial of a diagram file")
    group.add_argument("--perm", metavar="W",
                       help="Schubert polynomial of a permutation")
    group.add_argument("--key", metavar="A",
                       help="Demazure character of a composition")
    group.add_argument("--slide", metavar="A",
                       help="fundamental slide polynomial of a composition")
    p_poly.add_argument("--n", type=_nonnegative_int, default=None,
                        help="number of variables")
    p_poly.add_argument("--max-diagrams", type=_positive_int, default=None)

    p_expand = sub.add_parser("expand", help="expand a Kohnert polynomial")
    _add_diagram_source(p_expand)
    p_expand.add_argument("--basis", choices=("key", "slide"), default="key")
    p_expand.add_argument("--check", action="store_true",
                          help="re-verify the expansion against the polynomial")
    p_expand.add_argument("--max-diagrams", type=_positive_int, default=None)

    p_crystal = sub.add_parser("crystal",
                               help="crystal graph as annotated DOT")
    _add_diagram_source(p_crystal)
    p_crystal.add_argument("--max-diagrams", type=_positive_int, default=None)

    p_verify = sub.add_parser("verify", help="run verification sweeps")
    p_verify.add_argument("suite", nargs="?", default="all",
                          choices=(*SUITES, "all"))
    p_verify.add_argument("--max-parts", type=_nonnegative_int, default=None)
    p_verify.add_argument("--max-size", type=_nonnegative_int, default=None)
    p_verify.add_argument("--n", type=_nonnegative_int, default=None)
    p_verify.add_argument("--box", type=_parse_box, default=None,
                          metavar="CxR", help="box bound, like 3x3")
    p_verify.add_argument("--max-cells", type=_nonnegative_int, default=None)
    p_verify.add_argument("--t-rows", type=_nonnegative_int, default=None)
    p_verify.add_argument("--samples", type=_positive_int, default=None)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--jobs", type=_positive_int, default=None,
                          help="fan independent cases out to N processes, "
                               "at most one per CPU")

    p_member = sub.add_parser("membership",
                              help="decide membership by labeling")
    p_member.add_argument("t_file", help="candidate diagram file")
    p_member.add_argument("d_file", help="source diagram file")
    p_member.add_argument("--explain", action="store_true",
                          help="print the labeling or the failure reason")
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reads, built on its first call and kept."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # looked up per call: the cached parser must not pin a command function
        return globals()[f"cmd_{args.command}"](args)
    except (GridParseError, UsageError, MaxDiagramsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceBoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
