"""Golden lock: SHA-256 digests of canonical JSON reports.

A refactor or speed-up must leave every digest unchanged.  The local-search
cases pin the seeded RNG draw order, including the balance-repair picks
whose order follows edge insertion rather than lexicographic order (the
n = 7, tc3:2 case with 60 restarts exercises it).  A change that moves a
digest on purpose must say so and say why.
"""

import hashlib
import json

import pytest

from sgx.families import gamma
from sgx.forbidden import ForbiddenSpec
from sgx.search import enumerate_extremal, local_search, verify_spectral_bound


def _digest(report) -> str:
    text = json.dumps(report.to_json_dict(canonical=True), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


GOLDEN = [
    ("enumerate-5-tc3:2", lambda: enumerate_extremal(5, ForbiddenSpec("tc3", 2), top_k=1),
     "216c345f62907acc6a8e139ba3abc7aa7735a4ecaa5d3116c9bf1f59a73a81ab"),
    ("enumerate-5-tc3:3", lambda: enumerate_extremal(5, ForbiddenSpec("tc3", 3), top_k=1),
     "0c34cde2827a12be56053c99542990645baf520ff06ece5638d5b95389bdca44"),
    ("enumerate-5-tc3:5", lambda: enumerate_extremal(5, ForbiddenSpec("tc3", 5), top_k=1),
     "db023f7c3a5a65c1bccf0b81785fd184aafd3614d2332d864cd042c73fb76596"),
    ("enumerate-5-tc3:7", lambda: enumerate_extremal(5, ForbiddenSpec("tc3", 7), top_k=1),
     "70ef0971dc2e35feb5913984b909b95c2eb9d451717fae3367bc0b63526fb1dd"),
    ("enumerate-5-book:2", lambda: enumerate_extremal(5, ForbiddenSpec("book", 2), top_k=3),
     "e85d64fd0674dd30ffdd1ad6318defa2826ef16c727316752e9d360081f0d32d"),
    ("enumerate-5-friendship:2",
     lambda: enumerate_extremal(5, ForbiddenSpec("friendship", 2), top_k=3),
     "f29accf1e29635ae39199a4df6d3c9d69f1bf61071226d3a06adc1be7fe96e9e"),
    ("c3bound-5", lambda: verify_spectral_bound(5),
     "b1f4071d0b01fa42ff1c461708107b98717753f9a6b56ee3c0a33fc3b1ce8586"),
    ("search-7-tc3:2", lambda: local_search(7, ForbiddenSpec("tc3", 2), seed=42, restarts=60),
     "d9740d278e88edb74a569b031704fc1d01efdb64a12ff7b4a4a6368fb4ade965"),
    ("search-9-book:2", lambda: local_search(9, ForbiddenSpec("book", 2), seed=42, restarts=3),
     "68eea8ba23167347d6500a0b26c8f4e3837d89e332ebccaf2626ba93a33e37b3"),
    ("search-7-friendship:2",
     lambda: local_search(7, ForbiddenSpec("friendship", 2), seed=42, restarts=10),
     "78e0e9a9924dc79c3e816ac50d7533f16408c3180c380f5c6bf3699b957d5084"),
    ("search-9-tc3:5-excl",
     lambda: local_search(9, ForbiddenSpec("tc3", 5), seed=42, restarts=1, exclude=[gamma(9, 6)]),
     "b47d5ea3b60071974e86bfaa565a59ee7588d3fc79ae289d7cc26a539e51dbbc"),
]


@pytest.mark.parametrize("run,expected", [(r, d) for _, r, d in GOLDEN],
                         ids=[name for name, _, _ in GOLDEN])
def test_golden_digest(run, expected):
    assert _digest(run()) == expected
