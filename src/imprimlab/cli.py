"""Command-line interface.

Subcommands: systems, nonrefinable, theorem, example21, census, inclusion,
maxsolv, blocks.  Every run emits a JSON document on stdout and a short
human summary on stderr (suppressed by --json-only).  Exit codes: 0 all
claims pass (or query succeeded), 1 claim failure, 2 usage or validation
error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import (
    DEFAULT_CAP_ELEMENTS,
    DEFAULT_CAP_SUBSPACES,
    CapError,
    ImprimlabError,
    limits,
)
from .groups import block_systems
from .descriptions import parse_group
from .imprim import all_systems, nonrefinable
from .reprs import is_irreducible
from .verify import (
    VerificationReport,
    induced_example_report,
    maximal_solvable_witness,
    regression_theorem_instances,
    wreath_inclusion_report,
    wreath_uniqueness_report,
)
from .wreath import WreathSpec, expected_exceptional_systems

QUERY_SCHEMA = "imprimlab-query/1"

EXIT_OK = 0
EXIT_CLAIM_FAILURE = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _load_document(path: str, where: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ImprimlabError(f"{where}: cannot read {path} ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise ImprimlabError(f"{where}: invalid JSON in {path} ({exc})") from exc


def _load_group(path: str, where: str, perm: bool):
    """Load and build one group argument: a PermGroup if perm, else a
    MatrixGroup (matrix, wreath and induced descriptions all qualify)."""
    desc = parse_group(_load_document(path, where), where)
    if (desc.kind == "perm") != perm:
        wanted = "perm" if perm else "matrix, wreath or induced"
        raise ImprimlabError(
            f"{where}: expected a {wanted} description, got kind {desc.kind!r}"
        )
    return desc.build() if perm else desc.build_matrix_group()


def positive_int(text: str) -> int:
    """argparse type of the caps: an integer of at least 1.  argparse names
    the function in the error for a value that is not an integer."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"a cap must be at least 1, got {value}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--cap-elements", type=positive_int, default=DEFAULT_CAP_ELEMENTS,
        help="maximum group order enumerated, and maximum orbit points of a "
             "stabilizer chain (default %(default)s)",
    )
    common.add_argument(
        "--cap-subspaces", type=positive_int, default=DEFAULT_CAP_SUBSPACES,
        help="maximum subspaces scanned per dimension (default %(default)s)",
    )
    common.add_argument(
        "--json-only", action="store_true",
        help="suppress the human-readable summary on stderr",
    )

    parser = argparse.ArgumentParser(
        prog="imprimlab",
        description="Systems of imprimitivity for matrix groups over prime fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("systems", parents=[common],
                       help="list all systems of imprimitivity of a matrix group")
    p.add_argument("--group", required=True, help="group description JSON file")
    p.set_defaults(run=_systems_payload)

    p = sub.add_parser("nonrefinable", parents=[common],
                       help="list only the nonrefinable systems")
    p.add_argument("--group", required=True)
    p.set_defaults(run=_systems_payload)

    p = sub.add_parser("theorem", parents=[common],
                       help="verify the unique-nonrefinable-system dichotomy")
    p.add_argument("--h", dest="h_file", help="block group description (matrix kind)")
    p.add_argument("--k", dest="k_file", help="point group description (perm kind)")
    p.add_argument("--regression", action="store_true",
                   help="run every built-in regression instance instead")
    p.set_defaults(run=_theorem)

    p = sub.add_parser("example21", parents=[common],
                       help="verify the induced degree-4 two-systems construction")
    p.add_argument("--q", type=int, required=True, help="target field, prime, 1 mod 6")
    p.set_defaults(run=_example21)

    p = sub.add_parser("census", parents=[common],
                       help="predicted systems of an exceptional wreath product")
    p.add_argument("--h", dest="h_file", required=True)
    p.add_argument("--k", dest="k_file", required=True)
    p.set_defaults(run=_census)

    p = sub.add_parser("inclusion", parents=[common],
                       help="check wreath-in-wreath containment against conditions")
    p.add_argument("--h1", required=True)
    p.add_argument("--k1", required=True)
    p.add_argument("--h2", required=True)
    p.add_argument("--k2", required=True)
    p.set_defaults(run=_inclusion)

    p = sub.add_parser("maxsolv", parents=[common],
                       help="solvable overgroup witness for the monomial group")
    p.add_argument("--q", type=int, required=True, choices=[3, 5])
    p.set_defaults(run=_maxsolv)

    p = sub.add_parser("blocks", parents=[common],
                       help="block systems of a permutation group")
    p.add_argument("--group", required=True, help="perm description JSON file")
    p.add_argument("--size", type=int, required=True)
    p.set_defaults(run=_blocks)

    return parser


def _systems_payload(args):
    group = _load_group(args.group, "group", False)
    systems = all_systems(group)
    nonref = set(nonrefinable(systems))
    rows = []
    for s in systems:
        flag = s in nonref
        if args.command == "nonrefinable" and not flag:
            continue
        rows.append(
            {
                "component_dim": s.component_dim,
                "component_count": s.component_count,
                "nonrefinable": flag,
                "parts": s.to_rows(),
            }
        )
    payload = {
        "schema": QUERY_SCHEMA,
        "command": args.command,
        "degree": group.n,
        "p": group.p,
        "systems": rows,
    }
    summary = [f"{payload['command']}: {len(rows)} system(s) listed"]
    if not is_irreducible(group):
        # all_systems finds only systems whose parts form one orbit
        payload["complete"] = False
        summary.append("incomplete: the group is reducible, so systems whose "
                       "parts fall into several orbits are not listed")
    return payload, EXIT_OK, summary


def _wreath_spec_from_files(args):
    return WreathSpec(
        _load_group(args.h_file, "h", False),
        _load_group(args.k_file, "k", True),
    )


def _report_payload(report: VerificationReport):
    code = EXIT_OK if report.passed else EXIT_CLAIM_FAILURE
    return report.to_dict(), code, report.summary_lines()


def _theorem(args):
    if args.regression:
        given = [flag for flag, value in (("--h", args.h_file), ("--k", args.k_file))
                 if value is not None]
        if given:
            raise ImprimlabError(
                f"theorem --regression runs the built-in instances and takes no "
                f"{', '.join(given)}"
            )
        named = [(name, wreath_uniqueness_report(spec))
                 for name, spec in regression_theorem_instances()]
        payload = {
            "schema": QUERY_SCHEMA,
            "command": "theorem-regression",
            "reports": [dict(r.to_dict(), name=name) for name, r in named],
            "pass": all(r.passed for _, r in named),
        }
        summary = [f"{name}: {'PASS' if r.passed else 'FAIL'}" for name, r in named]
        code = EXIT_OK if payload["pass"] else EXIT_CLAIM_FAILURE
        return payload, code, summary
    if not args.h_file or not args.k_file:
        raise ImprimlabError("theorem requires --h and --k (or --regression)")
    return _report_payload(wreath_uniqueness_report(_wreath_spec_from_files(args)))


def _example21(args):
    return _report_payload(induced_example_report(args.q))


def _census(args):
    spec = _wreath_spec_from_files(args)
    census = expected_exceptional_systems(spec)
    payload = {
        "schema": QUERY_SCHEMA,
        "command": "census",
        "p": census.p,
        "pair_systems": [b.one_based() for b in census.pair_systems],
        "lambdas": census.lambdas,
        "count": census.count,
        "systems": [s.to_rows() for s in census.systems],
    }
    summary = [
        f"census: {census.count} system(s) from "
        f"{len(census.pair_systems)} pair partition(s), lambdas {census.lambdas}"
    ]
    return payload, EXIT_OK, summary


def _inclusion(args):
    h1 = _load_group(args.h1, "h1", False)
    k1 = _load_group(args.k1, "k1", True)
    h2 = _load_group(args.h2, "h2", False)
    k2 = _load_group(args.k2, "k2", True)
    return _report_payload(wreath_inclusion_report(h1, k1, h2, k2))


def _maxsolv(args):
    return _report_payload(maximal_solvable_witness(args.q))


def _blocks(args):
    group = _load_group(args.group, "group", True)
    systems = block_systems(group, args.size)
    payload = {
        "schema": QUERY_SCHEMA,
        "command": "blocks",
        "degree": group.degree,
        "block_size": args.size,
        "systems": [b.one_based() for b in systems],
    }
    return payload, EXIT_OK, [f"blocks: {len(systems)} system(s) of size {args.size}"]


def run_command(argv) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with limits(elements=args.cap_elements, subspaces=args.cap_subspaces):
            payload, code, summary = args.run(args)
    except CapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ImprimlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    if not args.json_only:
        for line in summary:
            print(line, file=sys.stderr)
    return code


def main(argv=None) -> int:
    return run_command(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
