#!/usr/bin/env python3
"""Time the fixed-width kernels in ``primeavoid.kernels``.

Usage:
    python benchmarks/bench_kernels.py [--quick]

Each kernel runs a fixed workload three times; the table reports the
best wall time.
"""

import argparse
import math
import random
import time

from primeavoid import document, kernels, kpower, numtheory, squarefree
from primeavoid.schedule import make_schedule


def timed(fn, repeat=3):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def workloads(quick):
    sieve_limit = 10**6 if quick else 10**7
    # the squarefree check's gcd blocks over the odd sieve, as a slice
    # builds them
    def build_blocks(bound):
        count = numtheory._trial_block_count(bound)
        return list(numtheory._block_products(bound, 0, count))

    sift_limit = 10**6 if quick else 10**7
    rng = random.Random(0)
    mr_inputs = [rng.randrange(2, 2**62) | 1 for _ in range(2000 if quick else 20000)]
    jacobi_inputs = [
        (rng.randrange(0, 10**9), rng.randrange(1, 10**9) * 2 + 1)
        for _ in range(20000 if quick else 200000)
    ]
    # the window and prime bands of a squarefree x=10^4 run (y = 3725)
    sf_sch = make_schedule(10**4, 1, "practical")
    sf_sets = squarefree.build_sets(sf_sch)
    # its congruence system's classes, as squarefree.verify_window strikes
    # them: the two small bands' and the large band's (class, prime) pairs
    sf_pairs = squarefree.assign_primes(sf_sets)
    sf_classes = [
        (-c.residue, c.modulus)
        for c in squarefree.covering_congruences(sf_sets, sf_pairs)
    ]
    # the large band (numtheory.large_band) over U7 of a kpower k=3,
    # x=3*10^4 run, at the y capacity leaves (752)
    kp3_sch = kpower.construct_certificate_k(make_schedule(3 * 10**4, 3)).schedule
    kp3_sets = kpower.strike_offsets(kpower.build_sets_k(kp3_sch))
    # the first and widest set system a kpower k=2 x=10^4 run builds
    # (y = 3725, before capacity halves y to 116)
    kp2_sch = make_schedule(10**4, 2, "practical")
    sift_rules = [(p, (0, 1 % p)) for p in kernels.sieve_primes(100)]
    # the progression sieve's shape in numtheory.find_prime_in_ap: every
    # prime <= numtheory._SIEVE_DEPTH not dividing a ~2200-bit modulus,
    # over one chunk
    modulus = rng.getrandbits(2200) | (1 << 2199)
    m0 = rng.randrange(modulus)
    classes = [
        (-(m0 % p) * pow(modulus % p, -1, p) % p, p)
        for p in kernels.iter_primes(numtheory._SIEVE_DEPTH)
        if modulus % p
    ]
    chunk = 1024
    # the two costs numtheory._POOL_MIN_BITS weighs: one base-2 round on a
    # survivor, and a 2-worker pool started, given one task and shut down;
    # numtheory._SIEVE_DEPTH weighs the round at 320 and 2800 bits (the
    # reduced and the full-modulus kp2 certificates) against the cost of
    # each prime's root in numtheory._root_table
    spp_rounds = 10 if quick else 50

    def spp(bits, rounds=spp_rounds):
        n = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        return lambda: [kernels.strong_probable_prime(n, (2,)) for _ in range(rounds)]

    def root_table(bits, bound, repeat):
        modulus = rng.getrandbits(bits) | (1 << (bits - 1))
        m0 = rng.randrange(modulus)
        return lambda: [
            numtheory._root_table(m0, modulus, bound) for _ in range(repeat)
        ]

    def pool_start_stop():
        pool = numtheory._start_pool(2)
        pool.submit(abs, 0).result()
        pool.shutdown()

    # the squarefree check's trial scan to 10^7 (numtheory.trial_cofactor
    # cites these): an m with no prime factor <= 10^7, so every block is
    # scanned, with the blocks after the head in one in-process slice and
    # split across 2 workers, at 2048 bits and at the size of the
    # squarefree x=10^4 m (5,600 bits)
    bound = numtheory.SQUAREFREE_TRIAL_BOUND
    above = [p for p in kernels.sieve_primes(bound + 10**4) if p > bound]

    def scan_input(bits):
        m, primes = 1, iter(above)
        while m.bit_length() < bits:
            m *= next(primes)
        return m

    def scan(m, workers):
        def job():
            pool_workers = numtheory._pool_workers
            numtheory._pool_workers = lambda: workers
            try:
                numtheory.trial_cofactor(m, bound)
            finally:
                numtheory._pool_workers = pool_workers
        return job

    def scan_rows(bits):
        m = scan_input(bits)
        return [
            ("trial scan %d bits, head + 1 slice" % bits, scan(m, 1)),
            ("trial scan %d bits, 2 workers" % bits, scan(m, 2)),
        ]

    # what replaces those scans at squarefree x=10^4: the search for a
    # prime C in C0 + j*(N/B), B the product of the residue-0 moduli
    # (squarefree.find_squarefree_in_ap), and the verifier's one test of
    # the C it finds
    sf_n, sf_m0 = squarefree.solve_m0(
        squarefree.covering_congruences(sf_sets, sf_pairs)
    )
    sf_b = math.gcd(sf_m0, sf_n)
    sf_c0, sf_step = sf_m0 // sf_b, sf_n // sf_b
    sf_c = numtheory.find_prime_in_ap(sf_c0, sf_step)
    prime_c_rows = [
        ("prime-C search, N/B of x=10^4, %d bits" % sf_step.bit_length(),
         lambda: numtheory.find_prime_in_ap(sf_c0, sf_step)),
        ("is_prime(C), %d bits" % sf_c.bit_length(), lambda: numtheory.is_prime(sf_c)),
    ]

    # the verifier's witness check on the squarefree x=10^4 certificate:
    # one division of m + u per offset, against one residue of m per
    # distinct witness and a small-int sum per offset; and the primality
    # test of each congruence modulus, which the verifier runs once each
    sf_cert = squarefree.construct_certificate(sf_sch)
    sf_cover = sorted(sf_cert.cover.items())
    sf_moduli = [c.modulus for c in sf_cert.congruences]

    def by_residues():
        residue = {q: sf_cert.m % q for q in set(sf_cert.cover.values())}
        return [(residue[q] + u) % q for u, q in sf_cover]

    witness_rows = [
        ("witnesses sf x=1e4: divisions",
         lambda: [(sf_cert.m + u) % q for u, q in sf_cover]),
        ("witnesses sf x=1e4: residues", by_residues),
        ("is_prime_u64 x%d, moduli of sf x=1e4" % len(sf_moduli),
         lambda: [kernels.is_prime_u64(q) for q in sf_moduli]),
    ]

    # the serializer and the parser on the squarefree x=10^4 document
    sf_doc = document.certificate_to_document(sf_cert)
    sf_text = document.document_to_json(sf_doc)
    document_rows = [
        ("document_to_json sf x=1e4, %d bytes" % len(sf_text),
         lambda: document.document_to_json(sf_doc)),
        ("parse_document sf x=1e4", lambda: document.parse_document(sf_text)),
    ]

    # the head alone, the primes below numtheory._PRIMORIAL_BOUND in their
    # trial blocks (numtheory._head_blocks, built once): 5,600-bit
    # candidates that the square of 2, of 3 (the common rejects, ended by
    # the first block) and of the largest prime below 2^16 divide, and the
    # m of a squarefree x=400 run, whose cofactor the head leaves prime;
    # 100 scans each
    head_p = max(kernels.sieve_primes(numtheory._PRIMORIAL_BOUND - 1))
    x400_m = squarefree.construct_certificate(make_schedule(400)).m

    def heads(m):
        job = scan(m, 2)
        return lambda: [job() for _ in range(100)]

    head_rows = [
        *[("head: p^2 | m, p=%d, 5600 bits x100" % p, heads(scan_input(5600) * p**2))
          for p in (2, 3, head_p)],
        ("head: m of squarefree x=400, %d bits x100" % x400_m.bit_length(),
         heads(x400_m)),
    ]

    return [
        ("sieve_primes(%.0e)" % sieve_limit, lambda: kernels.sieve_primes(sieve_limit)),
        ("trial blocks(%.0e)" % sieve_limit, lambda: build_blocks(sieve_limit)),
        ("is_prime_u64 x%d" % len(mr_inputs),
         lambda: [kernels.is_prime_u64(n) for n in mr_inputs]),
        ("jacobi_sym x%d" % len(jacobi_inputs),
         lambda: [kernels.jacobi_sym(a % n, n) for a, n in jacobi_inputs]),
        ("build_sets_k(k=2, x=1e4, y=%d)" % kp2_sch.y,
         lambda: kpower.build_sets_k(kp2_sch)),
        ("large band kp3 x=3e4, %d offsets" % len(kp3_sets.u7),
         lambda: kpower.match_offsets(kp3_sets)),
        ("large band sf x=1e4, %d offsets" % len(sf_sets.u6),
         lambda: squarefree.assign_primes(sf_sets)),
        ("struck_witnesses(y=%d) x%d" % (sf_sch.y, len(sf_classes)),
         lambda: numtheory.struck_witnesses(sf_sch.y, sf_classes)),
        ("sifted_count(%.0e)" % sift_limit,
         lambda: kernels.sifted_count(sift_limit, sift_rules)),
        ("strike %d primes x%d steps" % (len(classes), chunk),
         lambda: kernels.strike(bytearray(b"\x01") * chunk, classes)),
        ("base-2 spp round 320 bits x%d" % spp_rounds, spp(320)),
        ("base-2 spp round 1024 bits x%d" % spp_rounds, spp(1024)),
        ("base-2 spp round 2048 bits x%d" % spp_rounds, spp(2048)),
        ("base-2 spp round 2800 bits x10", spp(2800, 10)),
        ("root table 2^10, 320 bits x100", root_table(320, 2**10, 100)),
        ("root table 2^12, 320 bits x100", root_table(320, 2**12, 100)),
        ("root table 2^12, 2800 bits x100", root_table(2800, 2**12, 100)),
        ("root table 2^14, 320 bits x10", root_table(320, 2**14, 10)),
        ("pool start+stop, 2 workers", pool_start_stop),
        *scan_rows(2048),
        *scan_rows(5600),
        *prime_c_rows,
        *witness_rows,
        *document_rows,
        *head_rows,
    ]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true", help="smaller workloads")
    args = parser.parse_args()

    print(f"{'kernel':<40} {'seconds':>10}")
    for name, job in workloads(args.quick):
        print(f"{name:<40} {timed(job):>9.3f}s")


if __name__ == "__main__":
    main()
