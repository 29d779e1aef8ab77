"""The benchmark's own output check of a primeavoid certificate.

It uses plain int arithmetic and never imports primeavoid, so a defect in
the package's verifier cannot hide a defect in its constructor.  Checked:

* m == m0 (mod modulus);
* every witness prime p satisfies 2 <= p < value and p | value, where the
  window element is m + u (squarefree) or m^k + u - 1 (kpower);
* the cover and the exceptions tile the window exactly: [-y, y] for
  squarefree, [-y, y] without u = 1 (the element m^k itself) for kpower.
"""

from __future__ import annotations

import json


def check_certificate(text: str) -> list[str]:
    """Problems found in a certificate document; empty when it holds.

    Big integers in the document are decimal strings; callers must lift
    Python's int/str digit limit (``sys.set_int_max_str_digits(0)``)
    before checking certificates above 4300 digits.
    """
    try:
        doc = json.loads(text)
        mode = doc["mode"]
        k = int(doc["schedule"]["k"])
        y = int(doc["schedule"]["y"])
        modulus, m0, m = int(doc["modulus"]), int(doc["m0"]), int(doc["m"])
        cover = [(int(e["u"]), int(e["witness_prime"])) for e in doc["cover"]]
        exceptions = [int(e["u"]) for e in doc["exceptions"]]
    except (ValueError, TypeError, KeyError) as exc:
        return [f"malformed certificate: {exc!r}"]

    if mode == "squarefree":
        base, shift, window = m, 0, list(range(-y, y + 1))
    elif mode == "kpower":
        base, shift = m**k, -1
        window = [u for u in range(-y, y + 1) if u != 1]
    else:
        return [f"unknown mode {mode!r}"]

    problems = []
    if modulus < 1 or (m - m0) % modulus:
        problems.append("m is not congruent to m0 modulo the modulus")
    for u, p in cover:
        value = base + u + shift
        if not 2 <= p < value or value % p:
            problems.append(f"witness {p} does not certify offset {u}")
            break
    if sorted([u for u, _ in cover] + exceptions) != window:
        problems.append("cover and exceptions do not tile the window")
    return problems
