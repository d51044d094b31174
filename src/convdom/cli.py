"""Command-line surface for batch use.

One command per process; a machine-readable result record goes to stdout
as a single JSON line and a human summary goes to stderr.  Exit codes:
0 success, 1 parse error, 2 wrong class, violated precondition, a
usage error (an unknown flag or a malformed argument, reported by
argparse) or a file error (an input that cannot be read or an ``--out``
that cannot be written), 3 a size guard exceeded: a brute-force oracle or
the gadget check was given more vertices than its fixed bound.  Usage and
file errors write no record on stdout.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from . import edgelist, records
from .domination import (
    gamma_bruteforce,
    gamma_con_bruteforce,
    gamma_con_hull4,
    gamma_iso_bruteforce,
    gamma_iso_pair,
)
from .errors import ConvdomError, ParseError, SizeGuardError, WrongClassError
from .generators import RNG_ALGORITHM, GenSpec
from .graph import Graph
from .recognition import (
    find_dominating_pair,
    is_chordal,
    is_chordal_dp_graph,
    split_partition,
)
from .reduction import verify_gadget_equivalence


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convdom",
        description="Convex and isometric domination toolkit for dominating pair graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the polynomial solvers")
    solve.add_argument("kind", choices=("convex", "isometric"))
    solve.add_argument("input", type=Path)
    solve.add_argument("--trust-class", action="store_true",
                       help="skip class recognition; certificate marked assumed")
    solve.set_defaults(func=_cmd_solve)

    recognize = sub.add_parser("recognize", help="report graph-class membership")
    recognize.add_argument("input", type=Path)
    recognize.set_defaults(func=_cmd_recognize)

    oracle = sub.add_parser("oracle", help="run the brute-force oracles")
    oracle.add_argument("kind", choices=("convex", "isometric", "domination"))
    oracle.add_argument("input", type=Path)
    oracle.set_defaults(func=_cmd_oracle)

    gadget = sub.add_parser("gadget", help="build and verify the hardness gadget")
    gadget.add_argument("input", type=Path)
    gadget.add_argument("--k", type=int, required=True)
    gadget.add_argument("--out", type=Path, default=None)
    gadget.set_defaults(func=_cmd_gadget)

    generate = sub.add_parser("generate", help="emit a fixture graph file")
    generate.add_argument("--family", required=True)
    generate.add_argument("--n", type=int, required=True)
    generate.add_argument("--seed", type=int, default=0, metavar="N")
    generate.add_argument("--density", type=float, default=0.5)
    generate.add_argument("--out", type=Path, default=None)
    generate.set_defaults(func=_cmd_generate)

    return parser


class _FileError(Exception):
    """An input that cannot be read or an ``--out`` that cannot be written."""


@contextmanager
def _file_access():
    """Report an OSError raised inside the block as a file error."""
    try:
        yield
    except OSError as exc:
        raise _FileError(exc) from exc


def _load(command: str, path: Path) -> tuple[Graph, dict]:
    """The graph in ``path`` and the start of its record."""
    with _file_access():
        data = path.read_bytes()
    g = edgelist.parse(edgelist.decode(data))
    record = records.base_record(command, path, data)
    record["graph"] = {"n": g.n, "m": g.edge_count}
    return g, record


def _cmd_solve(args) -> dict:
    g, record = _load(f"solve {args.kind}", args.input)
    if args.kind == "convex":
        record["class_check"] = "assumed" if args.trust_class else "verified"
        result = gamma_con_hull4(g, trust=args.trust_class)
    else:
        # the isometric solver consumes the dominating pair, so the weak-dp
        # class check cannot be skipped
        record["class_check"] = "verified"
        pair = find_dominating_pair(g)
        if pair is None:
            raise WrongClassError("graph has no dominating pair")
        result = gamma_iso_pair(g, pair)
        record["pair"] = [pair.x, pair.y]
    record.update(records.solver_fields(result))
    _summary(f"{args.kind} domination number {result.value}, "
             f"witness {records.witness_field(result.witness)}")
    return record


def _cmd_recognize(args) -> dict:
    g, record = _load("recognize", args.input)
    chordality = is_chordal(g)
    record["chordal"] = chordality.chordal
    if chordality.hole is not None:
        record["hole"] = list(chordality.hole)
    part = split_partition(g)
    record["split"] = part is not None
    if part is not None:
        record["split_partition"] = {
            "clique": records.witness_field(part.clique),
            "independent": records.witness_field(part.independent),
        }
    pair = find_dominating_pair(g) if g.is_connected() else None
    record["weak_dp"] = pair is not None
    record["pair"] = None if pair is None else [pair.x, pair.y]
    verdict = is_chordal_dp_graph(g)
    record["chordal_dp"] = verdict.holds
    record["witness"] = (
        None if verdict.witness is None else records.witness_record(verdict.witness)
    )
    _summary(
        f"chordal={chordality.chordal} weak_dp={record['weak_dp']} "
        f"chordal_dp={verdict.holds}"
    )
    return record


def _cmd_oracle(args) -> dict:
    g, record = _load(f"oracle {args.kind}", args.input)
    solver = {
        "convex": gamma_con_bruteforce,
        "isometric": gamma_iso_bruteforce,
        "domination": gamma_bruteforce,
    }[args.kind]
    result = solver(g)
    record.update(records.solver_fields(result))
    _summary(f"brute-force {args.kind} value {result.value}")
    return record


def _cmd_gadget(args) -> dict:
    g, record = _load("gadget", args.input)
    report = verify_gadget_equivalence(g, args.k)
    gadget = report.gadget
    out = args.out or args.input.with_suffix(".gadget.elist")
    # the file is ASCII and a newline would end the comment: escape the name
    name = args.input.name.encode("unicode_escape").decode("ascii")
    comments = (
        f"gadget of {name}: x={gadget.x} y={gadget.y} y_prime={gadget.y_prime}",
        "source_map " + " ".join(f"{i}->{v}" for i, v in enumerate(gadget.source_map)),
    )
    with _file_access():
        edgelist.dump(gadget.graph, out, comments)
    record["gadget_file"] = str(out)
    record["x"] = gadget.x
    record["y"] = gadget.y
    record["y_prime"] = gadget.y_prime
    record["source_map"] = list(gadget.source_map)
    record["k"] = report.k
    record["input_within_k"] = report.input_within_k
    record["gadget_within_k_plus_1"] = report.gadget_within_k_plus_1
    record["equivalent"] = report.holds
    record["gamma_con_input"] = report.input_result.value
    record["gamma_con_gadget"] = report.gadget_result.value
    _summary(f"gadget written to {out}; equivalence at k={args.k}: {report.holds}")
    return record


def _cmd_generate(args) -> dict:
    spec = GenSpec(args.family, args.n, args.seed, args.density)
    g = spec.build()
    out = args.out or Path(spec.filename())
    with _file_access():
        edgelist.dump(g, out)
        file_sha256 = records.digest(out.read_bytes())
    record = records.base_record("generate", None, None)
    record["family"] = spec.family
    record["n"] = spec.n
    record["seed"] = spec.seed
    record["density"] = spec.density
    record["rng"] = RNG_ALGORITHM
    record["file"] = str(out)
    record["vertices"] = g.n
    record["edges"] = g.edge_count
    record["file_sha256"] = file_sha256
    _summary(f"{spec.family} fixture with {g.n} vertices written to {out}")
    return record


def _summary(message: str) -> None:
    print(message, file=sys.stderr)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    started = time.perf_counter()
    try:
        record = args.func(args)
    except ParseError as exc:
        _summary(f"parse error: {exc}")
        return 1
    except WrongClassError as exc:
        record = {"schema": records.SCHEMA, "command": args.command,
                  "status": "wrong-class", "error": str(exc)}
        if exc.witness is not None:
            record["witness"] = records.witness_record(exc.witness)
        if exc.hole is not None:
            record["hole"] = list(exc.hole)
        sys.stdout.write(records.to_line(record))
        _summary(f"wrong class: {exc}")
        return 2
    except SizeGuardError as exc:
        _summary(f"size guard: {exc}")
        return 3
    except ConvdomError as exc:
        _summary(f"error: {exc}")
        return 2
    except _FileError as exc:
        _summary(f"file error: {exc}")
        return 2
    record["timings"] = {"seconds": round(time.perf_counter() - started, 6)}
    sys.stdout.write(records.to_line(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
