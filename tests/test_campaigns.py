"""Campaign rows built from shared parts, with their text pinned.

A row's parameter pairs come from one cached pair per distinct (key,
value), and an actual text equal to the expected text is that one string.
None of this may change a row's bytes: the describe() lines of the seven
campaigns that the processing digest does not cover are pinned here.
"""

import hashlib
import pickle

from panehr import campaigns
from panehr.campaigns import _param


def _pairs(rows):
    return [pair for row in rows for pair in row.params]


def _shares_every_pair(rows) -> bool:
    pairs = _pairs(rows)
    return len({id(p) for p in pairs}) == len(set(pairs))


def test_param_returns_one_pair_per_key_and_value():
    assert _param("s", 3) is _param("s", 3)
    assert _param("s", 3) == ("s", "3")
    assert _param("check", "total") is _param("check", "total")


def test_param_keeps_values_of_different_types_apart():
    assert _param("x", True) == ("x", "True")
    assert _param("x", 1) == ("x", "1")
    assert _param("x", True) is not _param("x", 1)


def test_campaign_rows_share_every_pair():
    for name in ("identity-main", "per-term"):
        rows = campaigns.run_campaign(name)
        assert len(_pairs(rows)) > len(set(_pairs(rows)))
        assert _shares_every_pair(rows), name


def test_an_equal_verdict_holds_one_text():
    rows = campaigns.run_campaign("identity-main")
    assert all(row.ok for row in rows)
    assert all(row.actual is row.expected for row in rows)
    # unequal texts stay two strings
    row = campaigns._row({"s": 1}, 2, 3)
    assert (row.ok, row.expected, row.actual) == (False, "2", "3")


def test_pickled_chunk_keeps_rows_and_sharing():
    # one chunk as a worker of a --jobs 2 run sends it back
    chunk = campaigns.run_identity_main(7, 6) + campaigns.run_per_term(5, 4)
    back = pickle.loads(pickle.dumps(chunk))
    assert back == chunk
    assert [r.describe() for r in back] == [r.describe() for r in chunk]
    assert _shares_every_pair(back)
    # the same rows with one fresh tuple per pair
    unshared = [row._replace(params=tuple((k, v) for k, v in row.params))
                for row in chunk]
    assert not _shares_every_pair(unshared)
    assert unshared == chunk
    assert len(pickle.dumps(chunk)) < len(pickle.dumps(unshared))


# sha256 of the describe() lines of these campaigns at their defaults, in
# this order, joined by newlines; pinned before rows shared their parts
DIGEST_CAMPAIGNS = ("identity-main", "identity-lah", "identity-upper", "per-term",
                    "ehrhart-oracle", "bounds", "positivity")
GOLDEN_ROWS_SHA256 = "e865b07af534d7c4f9edf69d38c8a1d11b1288faf667f12a860d405b5df75960"


def test_rows_match_the_golden_digest():
    lines = [row.describe() for name in DIGEST_CAMPAIGNS
             for row in campaigns.run_campaign(name)]
    assert len(lines) == 12598
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == GOLDEN_ROWS_SHA256



def test_run_phi_names_both_forests_of_a_collision(monkeypatch):
    # run_phi keeps no preimages: it walks the stream again to name the
    # earlier forest, and the rows read as when it kept them
    from panehr import forests, processing

    stream = list(forests.iter_dcf(1, 2))
    first, second = stream[1], stream[4]
    phi = processing.phi
    monkeypatch.setattr(processing, "phi",
                        lambda d: phi(first) if d == second else phi(d))
    assert [row.describe() for row in campaigns.run_phi(2, 1)] == [
        "FAIL s=2 q=1 check=bijection expected=5 forests map injectively and "
        "round-trip actual=collision: [1][2]|A={2} and [1][2]^1|A={}",
        "FAIL s=2 q=1 check=image-complete expected=4 accepted candidates all hit "
        "actual=4 images, diff 1 [1][2]|A={2}",
    ]
