#!/usr/bin/env python3
"""Time the fixed-width kernels in ``primeavoid.kernels``.

Usage:
    python benchmarks/bench_kernels.py [--quick]

Each kernel runs a fixed workload three times; the table reports the
best wall time.
"""

import argparse
import random
import time

from primeavoid import kernels, numtheory, squarefree
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
    # the squarefree check's gcd blocks over the odd sieve, uncached
    build_blocks = numtheory._trial_blocks.__wrapped__
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
    # its congruence system's classes, as squarefree.verify_window strikes them
    sf_phi = squarefree.assign_primes(sf_sets)
    sf_classes = [
        (-c.residue, c.modulus) for c in squarefree.covering_congruences(sf_sets, sf_phi)
    ]
    sift_rules = [(p, (0, 1 % p)) for p in kernels.sieve_primes(100)]
    # the progression sieve's shape in kpower.find_prime_in_ap: every
    # prime <= 2^18 not dividing a ~2200-bit modulus, over one chunk
    modulus = rng.getrandbits(2200) | (1 << 2199)
    m0 = rng.randrange(modulus)
    classes = [
        (-(m0 % p) * pow(modulus % p, -1, p) % p, p)
        for p in kernels.iter_primes(2**18)
        if modulus % p
    ]
    chunk = 1024
    # the two costs kpower._POOL_MIN_BITS weighs: one base-2 round on a
    # survivor, and a 2-worker pool started, given one task and shut down
    spp_rounds = 10 if quick else 50

    def spp(bits):
        n = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        return lambda: [numtheory._strong_probable_prime(n, 2) for _ in range(spp_rounds)]

    def pool_start_stop():
        pool = numtheory._start_pool(2)
        pool.submit(abs, 0).result()
        pool.shutdown()

    # the squarefree check's trial scan to 10^7 (numtheory._SCAN_POOL_MIN_BITS
    # weighs these): an m with no prime factor <= 10^7, so every block is
    # scanned, at the cutoff and (without --quick) at the size of the
    # squarefree x=10^4 m.
    # In-process "cold" builds the blocks first, as a process's first scan
    # does; "warm" reuses them, as a later scan in the same process does.
    bound = numtheory.SQUAREFREE_TRIAL_BOUND
    above = [p for p in kernels.sieve_primes(bound + 10**4) if p > bound]

    def scan_input(bits):
        m, primes = 1, iter(above)
        while m.bit_length() < bits:
            m *= next(primes)
        return m

    def scan_cold(m):
        def job():
            numtheory._trial_blocks.cache_clear()
            numtheory._scan_blocks(m, numtheory._trial_blocks(bound))
        return job

    def scan_rows(bits):
        m = scan_input(bits)
        return [
            ("trial scan %d bits, cold" % bits, scan_cold(m)),
            ("trial scan %d bits, warm" % bits,
             lambda: numtheory._scan_blocks(m, numtheory._trial_blocks(bound))),
            ("trial scan %d bits, 2 workers" % bits,
             lambda: numtheory._pooled_cofactor(m, bound, 2)),
        ]

    # the head of a pooled trial scan (numtheory._SCAN_HEAD_BOUND): a
    # candidate of the squarefree x=10^4 size (5,600 bits) that the square
    # of the largest prime below 2^16 divides, rejected in-process, against
    # the one pooled scan that rejecting it with a one-block head costs
    head_m = scan_input(5600)
    head_p = max(kernels.sieve_primes(numtheory._SCAN_HEAD_BOUND))
    head_rows = [
        ("head: p^2 | m, p=%d, 5600 bits" % head_p,
         lambda: numtheory._pooled_cofactor(head_m * head_p**2, bound, 2)),
        ("trial scan 5600 bits, 2 workers",
         lambda: numtheory._pooled_cofactor(head_m, bound, 2)),
    ]

    return [
        ("sieve_primes(%.0e)" % sieve_limit, lambda: kernels.sieve_primes(sieve_limit)),
        ("trial blocks(%.0e)" % sieve_limit, lambda: build_blocks(sieve_limit)),
        ("is_prime_u64 x%d" % len(mr_inputs),
         lambda: [kernels.is_prime_u64(n) for n in mr_inputs]),
        ("jacobi_sym x%d" % len(jacobi_inputs),
         lambda: [kernels.jacobi_sym(a % n, n) for a, n in jacobi_inputs]),
        ("window_tables(y=%d)" % sf_sch.y,
         lambda: numtheory.window_tables(sf_sch.y, sf_sets.p1, sf_sets.p2, 1)),
        ("struck_witnesses(y=%d) x%d" % (sf_sch.y, len(sf_classes)),
         lambda: numtheory.struck_witnesses(sf_sch.y, sf_classes)),
        ("sifted_count(%.0e)" % sift_limit,
         lambda: kernels.sifted_count(sift_limit, sift_rules)),
        ("strike %d primes x%d steps" % (len(classes), chunk),
         lambda: kernels.strike(bytearray(b"\x01") * chunk, classes)),
        ("base-2 spp round 1024 bits x%d" % spp_rounds, spp(1024)),
        ("base-2 spp round 2048 bits x%d" % spp_rounds, spp(2048)),
        ("pool start+stop, 2 workers", pool_start_stop),
        *scan_rows(numtheory._SCAN_POOL_MIN_BITS),
        *([] if quick else scan_rows(10625)),
        *head_rows,
    ]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true", help="smaller workloads")
    args = parser.parse_args()

    print(f"{'kernel':<34} {'seconds':>10}")
    for name, job in workloads(args.quick):
        print(f"{name:<34} {timed(job):>9.3f}s")


if __name__ == "__main__":
    main()
