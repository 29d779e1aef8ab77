"""One certificate record and one serializer serve both modes.  The
serializer (document.certificate_to_document) adds the metrics that a
mode passes; it names no mode or metric of its own, and every document
holds the same top-level keys."""

import inspect
import re

from primeavoid import document as doc_mod
from primeavoid.document import Certificate, certificate_to_document
from primeavoid.numtheory import Congruence
from primeavoid.schedule import make_schedule

SHARED_KEYS = {
    "format_version", "mode", "seed", "schedule", "congruences",
    "modulus", "m0", "m", "cover", "exceptions", "metrics",
}
DERIVED_METRICS = {
    "log_m", "log_modulus", "exponent_report", "avoidance_constant",
    "prime_count_in_window", "autoshrink_trace",
}
# what the two modes name themselves, which the serializer must not
MODE_NAMES = {
    "squarefree", "kpower", "squarefree_status", "squarefree_trial_bound",
}


def stub_certificate():
    return Certificate(
        mode="stub",
        schedule=make_schedule(40, 1, "explicit", z=6.3246, y=3),
        modulus=15,
        m0=7,
        m=22,
        congruences=(Congruence(1, 3), Congruence(2, 5)),
        cover={-2: 5, 2: 3},
        metrics={"stub_metric": 7},
        autoshrink_trace=(4, 2),
    )


def test_a_stub_mode_serializes_to_its_own_metrics():
    doc = certificate_to_document(stub_certificate(), seed=5)
    assert set(doc) == SHARED_KEYS  # a mode adds no top-level key
    assert (doc["mode"], doc["seed"]) == ("stub", 5)
    assert set(doc["metrics"]) == DERIVED_METRICS | {"stub_metric"}
    assert doc["metrics"]["stub_metric"] == 7
    assert doc["metrics"]["prime_count_in_window"] == 0
    assert doc["metrics"]["autoshrink_trace"] == [4, 2]
    assert doc["exceptions"] == []
    assert doc["cover"] == [
        {"u": -2, "witness_prime": "5"}, {"u": 2, "witness_prime": "3"}
    ]


def test_the_serializer_names_no_mode():
    source = inspect.getsource(certificate_to_document)
    named = [n for n in MODE_NAMES if re.search(rf"\b{n}\b", source, re.IGNORECASE)]
    assert named == []
    assert doc_mod.kcertificate_to_document is certificate_to_document


def test_the_document_module_imports_no_construction_module():
    source = inspect.getsource(doc_mod)
    assert not re.search(r"^\s*from \.(squarefree|kpower) import", source, re.MULTILINE)
