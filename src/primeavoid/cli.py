"""Command-line front end.

Subcommands: construct (run a pipeline, emit a certificate document),
verify (re-check a document), bench-sieve (bound vs. exact count over a
parameter grid), matrix-scan (progression rows above a certificate).

Exit codes: 0 success, 1 verification/bench failure, 2 capacity failure,
3 search exhaustion, 64 usage error, 65 malformed document, 66 missing
certificate file, 70 internal error (a construction consistency check
failed).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import document as doc_mod
from . import kpower, sievebound, squarefree
from .errors import CapacityError, ConstructionError, DocumentError, SearchExhausted
from .numtheory import primes_upto
from .schedule import make_schedule

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CAPACITY = 2
EXIT_EXHAUSTED = 3
EXIT_USAGE = 64
EXIT_BAD_DOCUMENT = 65
EXIT_NO_CERTIFICATE = 66
EXIT_INTERNAL = 70  # sysexits EX_SOFTWARE


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="primeavoid")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    c = sub.add_parser("construct", help="run a construction and emit a certificate")
    c.add_argument("--mode", choices=("squarefree", "kpower"), required=True)
    c.add_argument("--x", type=float, required=True)
    c.add_argument("--k", type=int, default=1)
    c.add_argument("--profile", choices=("literal", "practical", "explicit"),
                   default="practical")
    c.add_argument("--z", type=float, default=None)
    c.add_argument("--y", type=int, default=None)
    c.add_argument("--c1", type=float, default=0.1)
    c.add_argument("--c2", type=float, default=0.25)
    c.add_argument("--delta", type=float, default=0.01)
    c.add_argument("--reduced-modulus", choices=("on", "off"), default="on")
    c.add_argument("--no-autoshrink", action="store_true")
    c.add_argument("--seed", type=int, default=0,
                   help="recorded in the certificate's seed field only; the "
                        "construction is deterministic and does not use it")
    c.add_argument("--max-steps", type=_positive_int, default=None)
    c.add_argument("--out", default=None)

    v = sub.add_parser("verify", help="re-check a certificate document")
    v.add_argument("path")

    b = sub.add_parser("bench-sieve", help="sieve bound vs. exact count on a grid")
    b.add_argument("--x", type=float, default=1000.0)
    b.add_argument("--k", type=int, default=1)
    b.add_argument("--range-size", type=int, default=100_000)
    b.add_argument("--family", choices=("double-residue", "none"),
                   default="double-residue")
    b.add_argument("--lam", default="0.1,0.15,0.2")
    b.add_argument("--b", default="1,2")
    b.add_argument("--kappa", type=float, default=2.0)
    b.add_argument("--a2", type=float, default=8.0)

    s = sub.add_parser("matrix-scan", help="scan progression rows above a certificate")
    s.add_argument("path")
    s.add_argument("--rows", type=int, required=True)
    return parser


def _cmd_construct(args) -> int:
    try:
        sch = make_schedule(
            args.x,
            k=args.k,
            profile=args.profile,
            c1=args.c1,
            c2=args.c2,
            delta=args.delta,
            z=args.z,
            y=args.y,
            c2_autoshrink=not args.no_autoshrink,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        if args.mode == "squarefree":
            max_steps = args.max_steps or squarefree.DEFAULT_MAX_STEPS
            cert = squarefree.construct_certificate(
                sch, max_steps=max_steps, seed=args.seed
            )
            doc = doc_mod.certificate_to_document(cert)
        else:
            max_steps = args.max_steps or kpower.DEFAULT_PRIME_STEPS
            cert = kpower.construct_certificate_k(
                sch,
                reduced=args.reduced_modulus == "on",
                max_steps=max_steps,
                seed=args.seed,
            )
            doc = doc_mod.kcertificate_to_document(cert)
    except CapacityError as exc:
        print(f"capacity failure: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except SearchExhausted as exc:
        print(f"search exhausted: {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED
    except (ConstructionError, RuntimeError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    text = doc_mod.document_to_json(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"certificate written to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _load_document(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read certificate: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_NO_CERTIFICATE) from exc
    try:
        return doc_mod.parse_document(text)
    except DocumentError as exc:
        print(f"error: malformed document: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_BAD_DOCUMENT) from exc


def _cmd_verify(args) -> int:
    doc = _load_document(args.path)
    report = doc_mod.verify_document(doc)
    print(report.render())
    if report.ok:
        print("certificate OK")
        return EXIT_OK
    print("certificate FAILED", file=sys.stderr)
    return EXIT_FAIL


def _parse_grid(text: str, cast, option: str) -> list:
    try:
        return [cast(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        print(f"error: cannot parse {option} {text!r}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from exc


def _cmd_bench_sieve(args) -> int:
    lams = _parse_grid(args.lam, float, "--lam")
    bs = _parse_grid(args.b, int, "--b")
    try:
        if not (args.kappa > 0 and args.a2 >= 1):
            raise ValueError(
                f"--kappa must be > 0 and --a2 >= 1, got {args.kappa:g} and {args.a2:g}"
            )
        sch = make_schedule(args.x, k=args.k, profile="practical")
        if args.family == "none":
            rules = {}
        else:
            primes = primes_upto(math.floor(sch.x))
            log_x = math.log(sch.x)
            p1 = [p for p in primes if p <= log_x]
            p2 = [p for p in primes if log_x < p <= sch.z]
            rules = sievebound.double_residue_rules(args.k, p1, p2)
        empirical = sievebound.empirical_sifted_count(args.range_size, rules, sch.z)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    rows = []
    violations = 0
    for lam in lams:
        for b in bs:
            row = {"lambda": lam, "b": b, "kappa": args.kappa}
            try:
                inst = sievebound.instance_for_rules(
                    args.range_size, rules, sch.z,
                    lam=lam, b=b, kappa=args.kappa, a2=args.a2,
                )
                main, err = sievebound.brun_bound_terms(inst)
            except ValueError as exc:
                row["skipped"] = str(exc)
                rows.append(row)
                continue
            bound = main + err
            row.update(
                {
                    "bound_main": main,
                    "bound_error_budget": err,
                    "bound": bound,
                    "empirical": empirical,
                    "ratio": bound / empirical if empirical else None,
                }
            )
            if empirical > bound:
                row["violation"] = True
                violations += 1
            rows.append(row)
    report = {
        "x": sch.x,
        "z": sch.z,
        "k": args.k,
        "range_size": args.range_size,
        "rows": rows,
        "violations": violations,
    }
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return EXIT_FAIL if violations else EXIT_OK


def _cmd_matrix_scan(args) -> int:
    doc = _load_document(args.path)
    if doc["mode"] != "kpower":
        print("error: matrix-scan needs a kpower certificate", file=sys.stderr)
        return EXIT_USAGE
    exceptional = [int(e["u"]) for e in doc["exceptions"]]
    with doc_mod.unlimited_int_digits():
        m0, modulus = int(doc["m0"]), int(doc["modulus"])
    try:
        report = kpower.matrix_scan(
            m0,
            modulus,
            int(doc["schedule"]["k"]),
            args.rows,
            int(doc["schedule"]["y"]),
            exceptional=exceptional,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    json.dump(
        {
            "rows": report.rows,
            "prime_rows": report.prime_rows,
            "rows_with_window_prime": report.rows_with_window_prime,
            "ratio": report.ratio,
            "avoiding_rows": list(report.avoiding_rows),
        },
        sys.stdout,
        indent=2,
        sort_keys=True,
    )
    sys.stdout.write("\n")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    handlers = {
        "construct": _cmd_construct,
        "verify": _cmd_verify,
        "bench-sieve": _cmd_bench_sieve,
        "matrix-scan": _cmd_matrix_scan,
    }
    try:
        return handlers[args.command](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
