#!/usr/bin/env python3
"""Run one primeavoid CLI command with every layer's public functions timed.

Usage:
    PYTHONPATH=src python3 e2ebench/traced.py TRACE.json construct|verify ARGS...

The functions the pipeline looks up as module attributes are rebound to
timing wrappers before ``cli.main(ARGS)`` runs, so the program itself is
unchanged.  Each call of a wrapped stage function records a span
``[name, parent, start, end]``, where ``parent`` indexes the enclosing
span (-1 at top level).  Hot leaf calls (the Jacobi symbol, primality of
n < 2^64) are too many to keep one by one, so they only add to a per-name
call count and total.  Everything stays in memory and is written to
TRACE.json when the command ends; the command's exit code is passed on.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

BIG = 2**64

# (defining module, function, span name).  A wrapper replaces the function
# in every module of LOOKUP_MODULES (and the defining one) that holds it,
# so calls are timed wherever the pipeline looks the name up.
STAGES = [
    ("numtheory", "primes_upto", "numtheory.primes_upto"),
    ("numtheory", "crt_solve", "numtheory.crt_solve"),
    ("squarefree", "classify_squarefree", "squarefree.classify_squarefree"),
    ("squarefree", "build_sets", "squarefree.build_sets"),
    ("squarefree", "solve_m0", "squarefree.solve_m0"),
    ("squarefree", "find_squarefree_in_ap", "squarefree.find_squarefree_in_ap"),
    ("squarefree", "verify_window", "squarefree.verify_window"),
    ("kpower", "build_sets_k", "kpower.build_sets_k"),
    ("kpower", "legendre_screen", "kpower.legendre_screen"),
    ("kpower", "match_offsets", "kpower.match_offsets"),
    ("kpower", "solve_m0_k", "kpower.solve_m0_k"),
    ("kpower", "find_prime_in_ap", "kpower.find_prime_in_ap"),
    ("kpower", "verify_power_window", "kpower.verify_power_window"),
    ("document", "certificate_to_document", "document.to_document"),
    ("document", "kcertificate_to_document", "document.to_document"),
    ("document", "document_to_json", "document.to_json"),
    ("document", "parse_document", "document.parse"),
    ("document", "verify_document", "document.verify_document"),
    ("kernels", "sieve_primes", "kernels.sieve_primes"),
]
LEAVES = [
    ("numtheory", "jacobi", "numtheory.jacobi"),
    ("kernels", "is_prime_u64", "kernels.is_prime_u64"),
]
LOOKUP_MODULES = ("numtheory", "squarefree", "kpower", "document")


def _crt(c, args, result):
    c["numtheory.modulus_bits"] += result[1].bit_length()


def _squarefree_search(c, args, result):
    c["squarefree.candidates_tried"] += result.candidates_tried


def _prime_search(c, args, result):
    m0, modulus = args[0], args[1]
    c["kpower.progression_steps"] += (result - m0) // modulus


def _matching(c, args, result):
    c["kpower.matched"] += len(result.matched)
    c["kpower.unmatched"] += len(result.unmatched)


def _power_window(c, args, result):
    c["kpower.exceptions"] += len(result[1])


def _to_document(c, args, result):
    c["document.congruences"] += len(result["congruences"])
    c["document.cover_entries"] += len(result["cover"])
    c["schedule.autoshrink_steps"] += len(result["metrics"]["autoshrink_trace"]) - 1


# Counters read from a stage's arguments and result, by span name.
COUNTERS = {
    "numtheory.crt_solve": _crt,
    "squarefree.find_squarefree_in_ap": _squarefree_search,
    "kpower.find_prime_in_ap": _prime_search,
    "kpower.match_offsets": _matching,
    "kpower.verify_power_window": _power_window,
    "document.to_document": _to_document,
}


class Tracer:
    """Spans, leaf-call totals and counters of one command."""

    def __init__(self):
        self.spans: list[list] = []
        self.open = [-1]
        self.leaves: dict[str, list] = {}
        self.counters: Counter = Counter()

    def span(self, name, fn):
        count = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            rec = [name, self.open[-1], perf_counter(), 0.0]
            self.open.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                self.open.pop()
            if count is not None:
                count(self.counters, args, result)
            return result

        return wrapper

    def leaf(self, name, fn):
        totals = self.leaves.setdefault(name, [0, 0.0])

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                totals[0] += 1
                totals[1] += perf_counter() - start

        return wrapper

    def is_prime(self, fn):
        """Span for n >= 2^64, named by verdict; leaf total below that."""
        big = self.span("numtheory.is_prime", fn)
        small = self.leaf("numtheory.is_prime.small", fn)

        def wrapper(n, *args, **kwargs):
            if n < BIG:
                return small(n, *args, **kwargs)
            index = len(self.spans)
            verdict = big(n, *args, **kwargs)
            self.spans[index][0] += ".big_prime" if verdict else ".big_composite"
            return verdict

        return wrapper

    def install(self, modules: dict) -> None:
        plan = [(mod, attr, self.span(name, getattr(modules[mod], attr)))
                for mod, attr, name in STAGES]
        plan += [(mod, attr, self.leaf(name, getattr(modules[mod], attr)))
                 for mod, attr, name in LEAVES]
        plan.append(("numtheory", "is_prime", self.is_prime(modules["numtheory"].is_prime)))
        for mod, attr, wrapper in plan:
            original = getattr(modules[mod], attr)
            for holder in {mod, *LOOKUP_MODULES}:
                if getattr(modules[holder], attr, None) is original:
                    setattr(modules[holder], attr, wrapper)


def summarize(record: dict) -> dict:
    """Per-layer totals of one traced command: ``<span>_s`` seconds for
    every span and leaf name, ``<name>.calls`` counts, the counters, and
    the top-level span time against the in-process time of cli.main."""
    out: Counter = Counter(record["counters"])
    spans = record["spans"]
    for name, parent, start, end in spans:
        out[name + "_s"] += end - start
        out[name + ".calls"] += 1
        if name.startswith("numtheory.is_prime.big"):
            out["numtheory.is_prime.big_calls"] += 1
            if parent >= 0 and spans[parent][0] == "kpower.find_prime_in_ap":
                out["kpower.candidates_tested"] += 1
        if parent < 0:
            out["root_s"] += end - start
    for name, (calls, seconds) in record["leaves"].items():
        out[name + "_s"] += seconds
        out[name + ".calls"] += calls
    out["in_process_s"] += record["in_process_s"]
    return out


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    from primeavoid import cli, document, kernels, kpower, numtheory, squarefree

    tracer = Tracer()
    tracer.install(
        {"numtheory": numtheory, "squarefree": squarefree, "kpower": kpower,
         "document": document, "kernels": kernels}
    )
    start = perf_counter()
    code = cli.main(argv)
    elapsed = perf_counter() - start
    record = {
        "argv": argv,
        "exit_code": code,
        "in_process_s": elapsed,
        "spans": tracer.spans,
        "leaves": tracer.leaves,
        "counters": tracer.counters,
    }
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
