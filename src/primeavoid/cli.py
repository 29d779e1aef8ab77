"""Command-line front end.

Subcommands: construct (run a pipeline, emit a certificate document),
verify (re-check a document) and bench-sieve (bound vs. exact count over
a parameter grid).

Each handler imports the modules its command runs and no others, so
that ``verify`` loads no construction code and ``construct`` only the
mode it runs.

Handlers only raise; ``main`` maps each failure to its exit code and
stderr line by one table, FAILURES, and names a failure that has no
message by its type (a MemoryError carries none).  Exit codes: 0
success, 1 a refuted certificate or a violated sieve bound (and nothing
else), 2 capacity failure, 3 search exhaustion, 64 usage error, 65
malformed document, 66 certificate file that cannot be read, 70
internal error (a construction consistency check failed, or any failure
the table does not name, such as a worker pool that cannot start), 73
certificate file that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import CapacityError, ConstructionError, DocumentError, SearchExhausted

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CAPACITY = 2
EXIT_EXHAUSTED = 3
EXIT_USAGE = 64
EXIT_BAD_DOCUMENT = 65
EXIT_NO_CERTIFICATE = 66
EXIT_INTERNAL = 70  # sysexits EX_SOFTWARE
EXIT_CANNOT_WRITE = 73  # sysexits EX_CANTCREAT

# (exception types, exit code, stderr prefix); the first match wins, so
# ConstructionError, a ValueError, comes before ValueError
FAILURES = (
    (CapacityError, EXIT_CAPACITY, "capacity failure"),
    (SearchExhausted, EXIT_EXHAUSTED, "search exhausted"),
    ((DocumentError, UnicodeDecodeError), EXIT_BAD_DOCUMENT, "error: malformed document"),
    (ConstructionError, EXIT_INTERNAL, "internal error"),
    (ValueError, EXIT_USAGE, "error"),
    (Exception, EXIT_INTERNAL, "internal error"),
)


class CertificateFileError(Exception):
    """A certificate file that cannot be read (exit 66) or written (73)."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


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
    c.add_argument("--profile", choices=("practical", "explicit"),
                   default="practical")
    c.add_argument("--z", type=float, default=None)
    c.add_argument("--y", type=int, default=None)
    c.add_argument("--reduced-modulus", choices=("on", "off"), default="on")
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
    return parser


def _cmd_construct(args) -> int:
    from . import document as doc_mod
    from .numtheory import DEFAULT_PRIME_STEPS
    from .schedule import make_schedule

    sch = make_schedule(args.x, k=args.k, profile=args.profile, z=args.z, y=args.y)
    max_steps = args.max_steps or DEFAULT_PRIME_STEPS
    if args.mode == "squarefree":
        from . import squarefree

        cert = squarefree.construct_certificate(sch, max_steps=max_steps)
    else:
        from . import kpower

        cert = kpower.construct_certificate_k(
            sch,
            reduced=args.reduced_modulus == "on",
            max_steps=max_steps,
        )
    text = doc_mod.document_to_json(doc_mod.certificate_to_document(cert, seed=args.seed))
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CertificateFileError(
                EXIT_CANNOT_WRITE, f"cannot write certificate: {exc}"
            ) from exc
        print(f"certificate written to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import document as doc_mod

    try:
        with open(args.path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CertificateFileError(
            EXIT_NO_CERTIFICATE, f"cannot read certificate: {exc}"
        ) from exc
    report = doc_mod.verify_document(doc_mod.parse_document(data.decode("utf-8")))
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
        raise ValueError(f"cannot parse {option} {text!r}: {exc}") from exc


def _cmd_bench_sieve(args) -> int:
    from . import sievebound
    from .schedule import MIN_Y, make_schedule

    lams = _parse_grid(args.lam, float, "--lam")
    bs = _parse_grid(args.b, int, "--b")
    if not (args.kappa > 0 and args.a2 >= 1):
        raise ValueError(
            f"--kappa must be > 0 and --a2 >= 1, got {args.kappa:g} and {args.a2:g}"
        )
    # only x and z are read; a pinned y skips the window rule (y < 3 at x=16)
    sch = make_schedule(args.x, k=args.k, y=MIN_Y)
    rules = (
        {} if args.family == "none"
        else sievebound.double_residue_rules(args.k, sch.x, sch.z)
    )
    empirical = sievebound.empirical_sifted_count(args.range_size, rules, sch.z)

    rows = []
    violations = 0
    for lam in lams:
        for b in bs:
            row = {"lambda": lam, "b": b, "kappa": args.kappa}
            try:
                main, err = sievebound.brun_bound_terms(
                    args.range_size, rules, sch.z,
                    lam=lam, b=b, kappa=args.kappa, a2=args.a2,
                )
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
    }
    try:
        return handlers[args.command](args)
    except CertificateFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except Exception as exc:
        code, prefix = next(
            (code, prefix) for types, code, prefix in FAILURES if isinstance(exc, types)
        )
        print(f"{prefix}: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
