"""Unit tests for the processing map, its reversal, image test, and pairing."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forest_reference import all_ordered_chain_forests
from panehr import forests, processing
from panehr.forests import (Distinguished, Valued, flatten, format_distinguished,
                            format_valued)
from panehr.processing import (
    AlgorithmState,
    ReverseError,
    enumerate_image_candidates,
    image_check,
    initial_state,
    involution_f,
    negative_side,
    phi,
    phi_inverse,
    phi_trace,
    positive_side,
    process_step,
    reconstruct_state,
    reverse_step,
    reverse_trace,
    run_processing,
    trace_line,
)

EXAMPLE_ONE = Distinguished(((1, 6, 2), (3, 7, 5), (4,)), (2, 1, 0), frozenset())
EXAMPLE_TWO = Distinguished(((1, 5, 3), (2,), (4, 7), (8,), (6,)),
                            (2, 2, 1, 0, 1), frozenset({6, 8}))

TRACE_ONE = """\
[1,6,2]^2[3,7,5]^1[4] | P={} | L=[1,2,3,4,5,6,7]
[2,7,3]^1[4,1,6]^1[5] | P={1} | L=[2,3,4,5,6,7,1]
[3,1,4][5,2,7]^1[6] | P={1,2} | L=[3,4,5,6,7,1,2]
[3,1,4][6,5,2][7] | P={1,2,5} | L=[3,4,6,7,1,2,5]"""

TRACE_TWO = """\
[1,5,3]^2[2]^2[4,7]^1 | P={} | L=[1,2,3,4,5,7]
[2,7,4]^1[3]^2[5,1]^1 | P={1} | L=[2,3,4,5,7,1]
[3,1,5][4]^2[7,2]^1 | P={1,2} | L=[3,4,5,7,1,2]
[3,1,5][7]^1[2,4]^1 | P={1,2,4} | L=[3,5,7,1,2,4]
[3,1,5][2][4,7]^1 | P={1,2,4,7} | L=[3,5,1,2,4,7]"""

TRACE_REVERSE = """\
[3,1,4][5,2,6][7][8]^1 | P={1,2,7,8} | L=[3,4,5,6,1,2,7,8]
[3,1,4][5,2,6][8]^1[7]^1 | P={1,2,7} | L=[3,4,5,6,8,1,2,7]
[3,1,4][5,2,6][7]^2[8]^1 | P={1,2} | L=[3,4,5,6,7,8,1,2]
[2,8,3]^1[4,1,5][6]^2[7]^1 | P={1} | L=[2,3,4,5,6,7,8,1]
[1,7,2]^2[3,8,4][5]^2[6]^1 | P={} | L=[1,2,3,4,5,6,7,8]"""


class TestProcessStep:
    def test_first_worked_step(self):
        state = initial_state(Valued(((1, 6, 2), (3, 7, 5), (4,)), (2, 1, 0)))
        nxt = process_step(state)
        assert nxt.blocks == ((2, 7, 3), (4, 1, 6), (5,))
        assert nxt.values == (1, 1, 0)
        assert nxt.processed == frozenset({1})
        assert nxt.order == (2, 3, 4, 5, 6, 7, 1)

    def test_second_worked_step(self):
        state = AlgorithmState(((2, 7, 3), (4, 1, 6), (5,)), (1, 1, 0),
                               frozenset({1}), (2, 3, 4, 5, 6, 7, 1))
        nxt = process_step(state)
        assert nxt.blocks == ((3, 1, 4), (5, 2, 7), (6,))
        assert nxt.processed == frozenset({1, 2})

    def test_terminates_on_zero_values(self):
        state = initial_state(Valued(((1, 2), (3,)), (0, 0)))
        assert process_step(state) is None

    def test_skips_fully_processed_blocks(self):
        # positive value but nothing left to process in that block
        state = AlgorithmState(((3, 1, 5), (7,), (2, 4)), (0, 1, 1),
                               frozenset({1, 2, 4}), (3, 5, 7, 1, 2, 4))
        nxt = process_step(state)
        assert nxt.blocks == ((3, 1, 5), (2,), (4, 7))


class TestPhi:
    def test_worked_example_one(self):
        assert phi(EXAMPLE_ONE) == Distinguished(
            ((3, 1, 4), (6, 5, 2), (7,)), (0, 0, 0), frozenset())

    def test_worked_example_two(self):
        assert phi(EXAMPLE_TWO) == Distinguished(
            ((3, 1, 5), (2,), (4, 7), (8,), (6,)), (0, 0, 1, 0, 1),
            frozenset({6, 8}))

    def test_zero_values_fixed_point(self):
        d = Distinguished(((1, 3), (2,), (4,)), (0, 0, 0), frozenset())
        assert phi(d) == d

    def test_rejects_invalid_input(self):
        # nonzero block weight violates the distinguished structure
        with pytest.raises(ValueError):
            phi(Distinguished(((2, 1), (3,)), (1, 0), frozenset()))

    def test_trace_goldens(self):
        assert "\n".join(phi_trace(EXAMPLE_ONE)) == TRACE_ONE
        assert "\n".join(phi_trace(EXAMPLE_TWO)) == TRACE_TWO


# One tampered snapshot per message that process_step (q1 None) and
# reverse_step (with budget q1) can raise.  Several carry an order L that
# is not the canonical one, which both steps must follow as given.
TAMPERED = [
    (AlgorithmState(((1, 2),), (1,), frozenset(), (2, 1)), None,
     "leader is not minimal among the shifted elements"),
    (AlgorithmState(((1, 6, 2), (3, 7, 5), (4,)), (2, 1, 0),
                    frozenset({5}), (1, 2, 3, 4, 5, 6, 7)), None,
     "elements are not processed in increasing order"),
    (AlgorithmState(((1,), (3, 2)), (0, 1), frozenset(), (3, 2, 1)), None,
     "blocks are not increasing by leader in the current order"),
    (AlgorithmState(((1,), (2, 3)), (1, 1), frozenset(), (1, 3, 2)), None,
     "a block leader is not minimal in its block under the current order"),
    (AlgorithmState(((2, 3, 1),), (1,), frozenset(), (2, 3, 1)), None,
     "an unprocessed element contributes weight"),
    (AlgorithmState(((1, 2), (3,)), (0, 2), frozenset({2}), (1, 3, 2)), None,
     "a processed element neither contributes weight nor sits in an all-processed block"),
    (AlgorithmState(((1,),), (2,), frozenset(), (1,)), 2,
     "nothing to reverse: no processed elements"),
    (AlgorithmState(((1,),), (1,), frozenset({1}), (1,)), 3,
     "snapshot does not match the stated budget"),
    (AlgorithmState(((1, 2),), (0,), frozenset({2}), (1, 2)), 1,
     "no block qualifies as the reversal site"),
    (AlgorithmState(((2, 1),), (1,), frozenset({1, 2}), (2, 1)), 3,
     "last processed element is not maximal in the tail"),
]


def raised_message(step, state, q1):
    """The message step raises on the snapshot, or None."""
    try:
        if q1 is None:
            step(state)
        else:
            step(state, q1)
    except (AssertionError, ReverseError) as exc:
        return str(exc)
    return None


OPTIMIZED_SCRIPT = """
import json, sys
from panehr.forests import Distinguished, Valued
from panehr.processing import (AlgorithmState, ReverseError, image_check, phi, phi_trace,
                               process_step, reverse_step, reverse_trace)
raised = []
rejected = []
for d in (Distinguished(((1, 3), (2,)), (1.0, 1), frozenset()),
          Distinguished(((0, 1),), (2,), frozenset())):
    try:
        rejected.append(repr(phi(d)))
    except ValueError as exc:
        rejected.append(str(exc))
for state, q1, _ in TAMPERED:
    try:
        if q1 is None:
            process_step(state)
        else:
            reverse_step(state, q1)
        raised.append(None)
    except (AssertionError, ReverseError) as exc:
        raised.append(str(exc))
try:
    malformed_reverse = reverse_trace(Valued(((1,), (2,)), (0, 0, 3)), 3)
except ValueError as exc:
    malformed_reverse = str(exc)
print(json.dumps({
    "optimize": sys.flags.optimize,
    "raised": raised,
    "one": phi_trace(Distinguished(((1, 6, 2), (3, 7, 5), (4,)), (2, 1, 0), frozenset())),
    "two": phi_trace(Distinguished(((1, 5, 3), (2,), (4, 7), (8,), (6,)),
                                   (2, 2, 1, 0, 1), frozenset({6, 8}))),
    "reverse": reverse_trace(Valued(((3, 1, 4), (5, 2, 6), (7,), (8,)), (0, 0, 0, 1)), 5),
    "malformed_image": image_check(Distinguished(((2, 1), (3,)), (0, -2), frozenset()),
                                   0).reason,
    "malformed_reverse": malformed_reverse,
    "rejected": rejected,
}))
"""


def test_invariants_survive_optimize():
    # python -O strips assert statements; the step invariants must still raise
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = OPTIMIZED_SCRIPT.replace("TAMPERED", repr(TAMPERED), 1)
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    out = json.loads(done.stdout)
    assert out["optimize"] == 1
    assert out["raised"] == [message for _, _, message in TAMPERED]
    assert "\n".join(out["one"]) == TRACE_ONE
    assert "\n".join(out["two"]) == TRACE_TWO
    assert "\n".join(out["reverse"]) == TRACE_REVERSE
    assert out["malformed_image"] == "condition 0: values must be nonnegative"
    assert out["malformed_reverse"] == "one value per block required"
    assert out["rejected"] == ["values must be ints", "elements must be positive ints"]


class TestReverse:
    def test_reverse_trace_golden(self):
        v = Valued(((3, 1, 4), (5, 2, 6), (7,), (8,)), (0, 0, 0, 1))
        assert "\n".join(reverse_trace(v, 5)) == TRACE_REVERSE

    def test_full_reversal_worked_example(self):
        v = Valued(((3, 1, 4), (5, 2, 6), (7,), (8,)), (0, 0, 0, 1))
        state = reconstruct_state(v, 5)
        while state.processed:
            state = reverse_step(state, 5)
        assert state.blocks == ((1, 7, 2), (3, 8, 4), (5,), (6,))
        assert state.values == (2, 0, 2, 1)

    def test_reverse_undoes_forward_on_sweep(self):
        for s in range(1, 5):
            for q in range(0, 4):
                for d in forests.iter_dcf(q, s):
                    nondist = Valued(
                        tuple(b for b in d.blocks if b[0] not in d.aset),
                        tuple(v for b, v in zip(d.blocks, d.values)
                              if b[0] not in d.aset))
                    q1 = sum(nondist.values)
                    state = initial_state(nondist)
                    while True:
                        nxt = process_step(state)
                        if nxt is None:
                            break
                        assert reverse_step(nxt, q1) == state
                        state = nxt

    def test_reconstruct_matches_forward_states(self):
        v = Valued(((1, 6, 2), (3, 7, 5), (4,)), (2, 1, 0))
        _, trail = run_processing(v, collect=True)
        for st in trail:
            assert reconstruct_state(Valued(st.blocks, st.values), 3) == st

    def test_no_valid_split_index(self):
        # weight 1 forest with zero values cannot come from a budget-0 run
        with pytest.raises(ReverseError):
            reconstruct_state(Valued(((2, 1), (3,)), (0, 0)), 0)

    def test_initial_state_has_nothing_to_reverse(self):
        state = reconstruct_state(Valued(((1, 2), (3,)), (1, 0)), 1)
        assert state.processed == frozenset()
        with pytest.raises(ReverseError):
            reverse_step(state, 1)


class TestPhiInverse:
    def test_inverts_worked_example(self):
        image = Distinguished(((3, 1, 4), (6, 5, 2), (7,)), (0, 0, 0), frozenset())
        assert phi_inverse(image, 3) == EXAMPLE_ONE

    def test_fixed_points(self):
        d = Distinguished(((1, 3), (2,), (4,)), (0, 0, 0), frozenset())
        assert phi_inverse(d, 0) == d

    def test_round_trip_sweep(self):
        for s in range(1, 5):
            for q in range(0, 4):
                for d in forests.iter_dcf(q, s):
                    image = phi(d)
                    assert phi_inverse(image, q) == d

    def test_rejects_non_image(self):
        with pytest.raises(ValueError):
            phi_inverse(Distinguished(((2, 1), (3,)), (0, 0), frozenset()), 0)

    def test_run_phi_reports_the_rejection_reason(self, monkeypatch):
        from panehr import campaigns, processing

        non_image = Distinguished(((2, 1),), (0,), frozenset())
        monkeypatch.setattr(processing, "phi", lambda d: non_image)
        bijection = campaigns.run_phi(2, 0)[0]
        assert not bijection.ok
        assert bijection.actual.startswith("image rejected: [2,1]|A={}: ")
        assert bijection.actual.endswith("condition 4: no split index balances the budget")

    def test_split_index_matches_reconstruct_state(self):
        # the j phi_inverse takes from image_check is the number of trailing
        # all-processed blocks that reconstruct_state's own search finds
        for s in range(1, 6):
            for q in range(0, 5):
                for d in forests.iter_dcf(q, s):
                    image = phi(d)
                    split = len(image.blocks) - forests.distinguished_block_count(image)
                    nondist = Valued(image.blocks[:split], image.values[:split])
                    q1 = q - len(image.aset) - sum(image.values[split:])
                    state = reconstruct_state(nondist, q1)
                    trailing = 0
                    while trailing < split and state.processed.issuperset(
                            nondist.blocks[split - 1 - trailing]):
                        trailing += 1
                    assert image_check(image, q).j == trailing, d

    def test_builds_from_the_checked_split_index(self, monkeypatch):
        from panehr import processing

        def not_expected(*args):
            raise AssertionError("phi_inverse searched for the split index again")

        monkeypatch.setattr(processing, "reconstruct_state", not_expected)
        assert phi_inverse(phi(EXAMPLE_ONE), 3) == EXAMPLE_ONE


class TestImageCheck:
    def test_accepts_plain_weight_zero(self):
        d = Distinguished(((1, 3), (2,), (4,)), (0, 0, 0), frozenset())
        verdict = image_check(d, 0)
        assert verdict and verdict.j == 0

    def test_rejects_weight_without_budget(self):
        verdict = image_check(
            Distinguished(((2, 1), (3,)), (0, 0), frozenset()), 0)
        assert not verdict
        assert "condition 4" in verdict.reason

    def test_accepts_all_images(self):
        for s in range(1, 5):
            for q in range(0, 4):
                for d in forests.iter_dcf(q, s):
                    assert image_check(phi(d), q)

    def test_accepted_set_equals_image_set(self):
        # brute-force predicate over the whole candidate space
        from itertools import chain, combinations

        for s in range(1, 5):
            subsets = [frozenset(c) for c in chain.from_iterable(
                combinations(range(1, s + 1), size) for size in range(s + 1))]
            for q in range(0, 3):
                images = {phi(d) for d in forests.iter_dcf(q, s)}
                accepted = set()
                for blocks in all_ordered_chain_forests(range(1, s + 1)):
                    k = len(blocks)
                    for aset in subsets:
                        for total in range(q + 1):
                            for values in forests.compositions(total, k):
                                d = Distinguished(blocks, values, aset)
                                if image_check(d, q):
                                    accepted.add(d)
                assert accepted == images, (s, q)

    def test_constructive_candidates_match_predicate(self):
        for s in range(0, 5):  # s = 0: the one forest with no blocks
            for q in range(0, 4):
                from_constructor = set(enumerate_image_candidates(q, s))
                for d in from_constructor:
                    assert image_check(d, q)
                assert from_constructor == {phi(d) for d in forests.iter_dcf(q, s)}

    def test_run_phi_fails_a_candidate_given_twice(self, monkeypatch):
        from panehr import campaigns, processing

        candidates = list(enumerate_image_candidates(1, 2))
        monkeypatch.setattr(processing, "enumerate_image_candidates",
                            lambda q, s: iter(candidates + candidates[:1]))
        bijection, complete = campaigns.run_phi(2, 1)
        assert bijection.ok and not complete.ok
        assert complete.actual == \
            f"{len(candidates)} images, diff 1 {format_distinguished(candidates[0])}"

    @pytest.mark.parametrize("q", range(4))
    def test_run_phi_on_the_empty_ground_set(self, q):
        from panehr import campaigns

        rows = campaigns.run_phi(0, q)
        assert len(rows) == 2 and all(row.ok for row in rows)

    def test_class_conditions(self):
        d = Distinguished(((1, 3), (2,), (4,)), (0, 0, 0), frozenset())
        assert image_check(d, 0, k=3, ell=2, m=2)
        verdict = image_check(d, 0, k=2, ell=2, m=2)
        assert not verdict and "condition 5" in verdict.reason

    def test_upper_variant(self):
        # images of the leader-1 restricted forests satisfy the extra clauses
        for s in range(2, 5):
            for q in range(1, 4):
                for k in range(2, s + 1):
                    for ell in range(s):
                        for m in range(2, k + 1):
                            for d in forests.enumerate_dcf1(q, s, k, ell, m):
                                img = phi(d)
                                assert image_check(img, q, k=k, ell=ell, m=m,
                                                   upper=True)

    def test_upper_variant_needs_the_class(self):
        # raised whatever the forest, before any condition is tested
        with pytest.raises(ValueError, match="needs ell and m"):
            image_check(Distinguished(((2, 1),), (0,), frozenset()), 0, upper=True)

    def test_upper_variant_rejects_value_on_last_block(self):
        d = Distinguished(((2,), (1,)), (0, 1), frozenset({1}))
        verdict = image_check(d, 2, k=2, ell=0, m=2, upper=True)
        assert not verdict and "upper condition" in verdict.reason


MALFORMED = [
    pytest.param(image_check, (Distinguished(((2, 1), (3,)), (0, -2), frozenset()), 0),
                 "values must be nonnegative", id="image_check-negative-value"),
    pytest.param(phi_inverse, (Distinguished(((2, 1), (3,)), (0, -2), frozenset()), 0),
                 "values must be nonnegative", id="phi_inverse-negative-value"),
    pytest.param(image_check, (Distinguished(((2, 1), (1,)), (0, 0), frozenset()), 2),
                 "blocks must be nonempty and disjoint", id="image_check-repeated-element"),
    pytest.param(image_check, (Distinguished(((1,), (2,)), (0,), frozenset()), 0),
                 "one value per block required", id="image_check-short-values"),
    pytest.param(image_check, (Distinguished(((), (1,)), (0, 0), frozenset()), 0),
                 "blocks must be nonempty and disjoint", id="image_check-empty-block"),
    pytest.param(reverse_trace, (Valued(((1,), (2,)), (0, 0, 3)), 3),
                 "one value per block required", id="reverse_trace-extra-value"),
    pytest.param(reverse_trace, (Valued(((1,), (2,)), (0, -2)), -2),
                 "values must be nonnegative", id="reverse_trace-negative-value"),
    pytest.param(reconstruct_state, (Valued(((1,), (2,)), (0, 0, 3)), 3),
                 "one value per block required", id="reconstruct_state-extra-value"),
    pytest.param(process_step, (AlgorithmState(((1,), (2,)), (1,), frozenset(), (1, 2)),),
                 "one value per block required", id="process_step-short-values"),
    pytest.param(reverse_step, (AlgorithmState(((1,), (1,)), (0, 0), frozenset({1}), (1,)), 1),
                 "blocks must be nonempty and disjoint", id="reverse_step-repeated-element"),
    pytest.param(run_processing, (Valued(((1,), (2,)), (1,)),),
                 "one value per block required", id="run_processing-short-values"),
    pytest.param(process_step, (AlgorithmState(((1,), (2,)), (1, 0), frozenset({5}), (1, 2)),),
                 "processed set P holds elements outside the blocks",
                 id="process_step-foreign-processed"),
    pytest.param(process_step, (AlgorithmState(((1,), (2,)), (1, 0), frozenset(), (2, 1, 7)),),
                 "order L is not a permutation", id="process_step-foreign-order"),
    pytest.param(process_step, (AlgorithmState(((1,), (2,)), (1, 0), frozenset(), (1,)),),
                 "order L is not a permutation", id="process_step-short-order"),
    pytest.param(reverse_step, (AlgorithmState(((1,), (2,)), (1, 0), frozenset({5}), (1, 2)), 1),
                 "processed set P holds elements outside the blocks",
                 id="reverse_step-foreign-processed"),
    pytest.param(reverse_step, (AlgorithmState(((1,), (2,)), (1, 0), frozenset({2}), (2, 1, 7)), 1),
                 "order L is not a permutation", id="reverse_step-foreign-order"),
    # P and L hold ints, as the elements do: 1.0 == 1 and True == 1
    pytest.param(process_step, (AlgorithmState(((1,), (2,)), (1, 0), frozenset({1.0}), (1, 2)),),
                 "processed set P holds elements outside the blocks",
                 id="process_step-float-processed"),
    pytest.param(process_step, (AlgorithmState(((1,), (2,)), (1, 0), frozenset(), (1.0, 2)),),
                 "order L is not a permutation", id="process_step-float-order"),
    pytest.param(reverse_step,
                 (AlgorithmState(((1,), (2,)), (0, 0), frozenset({True, 2}), (1, 2)), 2),
                 "processed set P holds elements outside the blocks",
                 id="reverse_step-bool-processed"),
]


@pytest.mark.parametrize("entry, args, rule", MALFORMED)
def test_malformed_valued_forest_is_rejected(entry, args, rule):
    # these entry points skip check_distinguished; each must still refuse a
    # forest or snapshot that breaks a shape rule rather than answer or
    # raise IndexError
    if entry is image_check:
        verdict = image_check(*args)
        assert not verdict and verdict.reason == f"condition 0: {rule}"
    else:
        with pytest.raises(ValueError, match=rule):
            entry(*args)


# Forests that break two rules of image_check at once, and the one named:
# the rules are tested in order, condition 0 first.
TWO_RULES = [
    pytest.param(Distinguished(((2, 1), (3, 4)), (0, -1), frozenset({3})), 0, {},
                 "condition 0: values must be nonnegative", id="shape-before-mixed-block"),
    pytest.param(Distinguished(((2, 1), (3, 4)), (0, 0), frozenset({3})), 0, {},
                 "condition 1: block (3, 4) mixes A and non-A elements",
                 id="mixed-block-before-balance"),
    pytest.param(Distinguished(((1,), (3, 2)), (0, 0), frozenset({2, 3, 4})), 0, {},
                 "condition 1: A blocks do not cover A exactly",
                 id="a-not-covered-before-a-block-weight"),
    pytest.param(Distinguished(((2,), (1,)), (0, 0), frozenset()), 5,
                 {"k": 2, "ell": 0, "m": 2, "upper": True},
                 "upper condition: 1 is not in the last A block", id="upper-before-balance"),
    pytest.param(Distinguished(((3,), (2, 1)), (0, 0), frozenset()), 3, {},
                 "condition 2: a trailing block leader is not its minimum",
                 id="trailing-weight-before-trailing-leaders"),
    pytest.param(Distinguished(((4,), (3,), (2,), (1,)), (0, 0, 0, 0), frozenset()), 2, {},
                 "condition 2: trailing blocks not increasing by leader",
                 id="trailing-leaders-before-leading-leaders"),
    pytest.param(Distinguished(((2,), (1,)), (1, 0), frozenset()), 0, {},
                 "condition 3: leading blocks not increasing by leader",
                 id="leading-leaders-before-leading-value"),
    pytest.param(Distinguished(((1, 3), (2,), (4,)), (1, 0, 0), frozenset()), 0,
                 {"k": 2, "ell": 0, "m": 2},
                 "condition 3: a leading block has nonzero value",
                 id="leading-value-before-class"),
]


@pytest.mark.parametrize("d, q, given, reason", TWO_RULES)
def test_image_check_names_the_first_broken_rule(d, q, given, reason):
    verdict = image_check(d, q, **given)
    assert tuple(verdict) == (False, None, reason)
    if not given:
        with pytest.raises(ValueError, match=re.escape(f"not in the image of phi: {reason}")):
            phi_inverse(d, q)


class TestCheckOnce:
    def test_kernel_split_index_matches_image_check(self):
        from panehr import processing

        for s in range(1, 5):
            for q in range(0, 4):
                for d in forests.iter_dcf(q, s):
                    image, j = processing._phi(d, forests.check_distinguished(d))
                    assert image == phi(d)
                    assert j == image_check(image, q).j, d

    def test_positive_side_rejects_malformed_forest_with_a(self):
        # two A blocks put d on the sign +1 side, where a nonempty A
        # answers before phi runs; the weighted non-A block is still caught
        d = Distinguished(((2, 1), (4,), (3,)), (0, 0, 0), frozenset({3, 4}))
        with pytest.raises(ValueError, match="nonzero weight"):
            positive_side(d)

    def test_each_entry_point_checks_its_input_once(self, monkeypatch):
        from panehr import processing

        calls = []
        original = processing.check_distinguished
        monkeypatch.setattr(processing, "check_distinguished",
                            lambda d: calls.append(d) or original(d))

        def checks(fn, *args):
            calls.clear()
            fn(*args)
            return len(calls)

        q = 2
        for d in forests.iter_dcf(q, 3):
            assert checks(phi, d) == 1
            assert checks(positive_side, d) == 1
            assert checks(phi_inverse, phi(d), q) == 0
            if negative_side(d):
                assert checks(involution_f, d) == 1

    def test_the_involution_battery_checks_each_forest_once(self, monkeypatch):
        from panehr import campaigns, processing

        calls = []
        original = processing.check_distinguished
        monkeypatch.setattr(processing, "check_distinguished",
                            lambda d: calls.append(d) or original(d))
        assert all(row.ok for row in campaigns.run_involution(3, 2))
        streamed = list(forests.iter_dcf(2, 3))
        assert len(calls) == len(streamed)
        assert set(calls) == set(streamed)


class TestInvolution:
    def test_changes_distinguished_part_by_one(self):
        for s in range(1, 5):
            for q in range(0, 4):
                for d in forests.iter_dcf(q, s):
                    if not negative_side(d):
                        continue
                    y = involution_f(d)
                    p_before = sum(1 for b in d.blocks if b[0] in d.aset)
                    p_after = sum(1 for b in y.blocks if b[0] in y.aset)
                    assert abs(p_before - p_after) == 1
                    assert positive_side(y)

    def test_rejects_positive_side_input(self):
        d = Distinguished(((1,), (2,)), (1, 0), frozenset())
        with pytest.raises(ValueError):
            involution_f(d)

    def test_case_two_grows_a(self):
        # [2][1] with value on the first block: the image splits with j = 1
        # and the leader of the A block is smaller, so the non-A block is
        # absorbed into A
        d = Distinguished(((2,), (1,)), (1, 0), frozenset({1}))
        y = involution_f(d)
        assert y.aset == frozenset({1, 2})

    def test_case_one_shrinks_a(self):
        d = Distinguished(((1,), (2,)), (0, 0), frozenset({2}))
        y = involution_f(d)
        assert y.aset == frozenset()

    def test_cancellation_names_the_first_class(self, monkeypatch):
        from panehr import campaigns, processing

        # with an empty plus side, every minus-side class is unbalanced
        monkeypatch.setattr(processing, "positive_side", lambda d: False)
        rows = {dict(r.params)["check"]: r for r in campaigns.run_involution(2, 1)}
        assert not rows["cancellation"].ok
        assert rows["cancellation"].actual == "class k=2 ell=0 m=2: 2 != 0"

    def test_pairing_row_fails_on_an_image_off_the_plus_side(self, monkeypatch):
        from panehr import campaigns, processing

        monkeypatch.setattr(processing, "involution_f", lambda d: d)
        rows = {dict(r.params)["check"]: r for r in campaigns.run_involution(2, 1)}
        assert not rows["injective-into-plus"].ok
        assert rows["injective-into-plus"].actual == "image not on plus side: [2][1]|A={1}"

    def test_pairing_row_fails_on_a_repeated_image(self, monkeypatch):
        from panehr import campaigns, processing

        # a plus-side forest with the block lengths of both minus forests
        fixed = Distinguished(((1,), (2,)), (0, 1), frozenset())
        assert positive_side(fixed)
        monkeypatch.setattr(processing, "involution_f", lambda d: fixed)
        rows = {dict(r.params)["check"]: r for r in campaigns.run_involution(2, 1)}
        assert not rows["injective-into-plus"].ok
        assert rows["injective-into-plus"].actual == "not injective at [1][2]|A={2}"

    def test_injective_and_counts_match(self):
        for s in range(1, 5):
            for q in range(0, 4):
                minus, plus = [], []
                for d in forests.iter_dcf(q, s):
                    if negative_side(d):
                        minus.append(d)
                    elif positive_side(d):
                        plus.append(d)
                images = {involution_f(d) for d in minus}
                assert len(images) == len(minus)
                assert images <= set(plus)
                assert len(images) == len(plus)


# ---------------------------------------------------------------------------
# reference engine: the snapshot-per-step loop, one AlgorithmState and one
# rank dict per step, that the mutable kernel in processing replaced


def reference_order(blocks, processed):
    """Unprocessed elements, then processed ones, each in natural order."""
    everything = sorted(forests.flatten(blocks))
    return tuple([e for e in everything if e not in processed]
                 + [e for e in everything if e in processed])


def reference_rotate_tail(state, target, step):
    rank = {e: i for i, e in enumerate(state.order)}
    tail = sorted((x for b in state.blocks[target:] for x in b), key=rank.get)
    shift = {x: tail[(i + step) % len(tail)] for i, x in enumerate(tail)}
    return tail, tuple(state.blocks[:target]) + tuple(
        tuple(shift[x] for x in b) for b in state.blocks[target:])


def reference_step_invariants(state):
    rank = {e: i for i, e in enumerate(state.order)}
    leaders = [b[0] for b in state.blocks]
    if not all(rank[leaders[i]] < rank[leaders[i + 1]] for i in range(len(leaders) - 1)):
        raise AssertionError("blocks are not increasing by leader in the current order")
    for b in state.blocks:
        if min(b, key=rank.get) != b[0]:
            raise AssertionError(
                "a block leader is not minimal in its block under the current order")
    contributors = {x for b in state.blocks for x in b if x < b[0]}
    if not contributors <= state.processed:
        raise AssertionError("an unprocessed element contributes weight")
    for p in state.processed:
        blk = next(b for b in state.blocks if p in b)
        if not (p < blk[0] or all(x in state.processed for x in blk)):
            raise AssertionError("a processed element neither contributes weight "
                                 "nor sits in an all-processed block")


def reference_process_step(state):
    target = None
    for idx, (b, v) in enumerate(zip(state.blocks, state.values)):
        if v > 0 and any(x not in state.processed for x in b):
            target = idx
            break
    if target is None:
        return None
    leader = state.blocks[target][0]
    tail, new_blocks = reference_rotate_tail(state, target, 1)
    if tail[0] != leader:
        raise AssertionError("leader is not minimal among the shifted elements")
    new_values = list(state.values)
    new_values[target] -= 1
    new_order = tuple(e for e in state.order if e != leader) + (leader,)
    if max(state.processed, default=0) >= leader:
        raise AssertionError("elements are not processed in increasing order")
    new_state = AlgorithmState(new_blocks, tuple(new_values),
                               state.processed | {leader}, new_order)
    reference_step_invariants(new_state)
    return new_state


def reference_reverse_step(state, q1):
    if not state.processed:
        raise ReverseError("nothing to reverse: no processed elements")
    if len(state.processed) + sum(state.values) != q1:
        raise ReverseError("snapshot does not match the stated budget")
    p = max(state.processed)
    target = None
    for idx, b in enumerate(state.blocks):
        leader = b[0]
        if (leader > p and leader not in state.processed) or \
           (leader <= p and leader in state.processed):
            target = idx
            break
    if target is None:
        raise ReverseError("no block qualifies as the reversal site")
    tail, new_blocks = reference_rotate_tail(state, target, -1)
    if tail[-1] != p:
        raise ReverseError("last processed element is not maximal in the tail")
    new_values = list(state.values)
    new_values[target] += 1
    processed = state.processed - {p}
    return AlgorithmState(new_blocks, tuple(new_values), processed,
                          reference_order(state.blocks, processed))


def reference_trail(valued):
    """Every snapshot of the forward run, the initial one first."""
    trail = [initial_state(valued)]
    while (nxt := reference_process_step(trail[-1])) is not None:
        trail.append(nxt)
    return trail


def reference_snapshot(valued, j):
    """The snapshot whose last j blocks are processed completely."""
    blocks, values = valued
    processed = {x for b in blocks for x in b if x < b[0]}
    for b in blocks[len(blocks) - j:]:
        processed.update(b)
    return AlgorithmState(blocks, values, frozenset(processed),
                          reference_order(blocks, processed))


def reference_reversal(state, q1):
    """Every snapshot of the full reversal, the given one first."""
    trail = [state]
    while trail[-1].processed:
        trail.append(reference_reverse_step(trail[-1], q1))
    return trail


def non_a_part(d):
    split = len(d.blocks) - forests.distinguished_block_count(d)
    return Valued(d.blocks[:split], d.values[:split]), split


def reference_phi(d):
    nondist, split = non_a_part(d)
    out = reference_trail(nondist)[-1]
    return Distinguished(out.blocks + d.blocks[split:], out.values + d.values[split:], d.aset)


def reference_phi_inverse(d, q):
    nondist, split = non_a_part(d)
    q1 = q - len(d.aset) - sum(d.values[split:])
    out = reference_reversal(reference_snapshot(nondist, image_check(d, q).j), q1)[-1]
    return Distinguished(out.blocks + d.blocks[split:], out.values + d.values[split:], d.aset)


class TestAgainstReference:
    def test_kernel_agrees_on_every_small_forest(self):
        for s in range(0, 6):
            for q in range(0, 4):
                for d in forests.iter_dcf(q, s):
                    image = phi(d)
                    assert image == reference_phi(d), d
                    assert phi_inverse(image, q) == reference_phi_inverse(image, q) == d
                    nondist, _ = non_a_part(d)
                    forward = reference_trail(nondist)
                    assert phi_trace(d) == [trace_line(st) for st in forward]
                    q1 = sum(nondist.values)
                    for before, after in zip(forward, forward[1:] + [None]):
                        assert process_step(before) == after
                        if before.processed:
                            # a forward snapshot: its order L is not canonical
                            assert reverse_step(before, q1) == \
                                reference_reverse_step(before, q1)
                    back, _ = non_a_part(image)
                    q1 = q - len(image.aset) - sum(image.values[len(back.blocks):])
                    reversal = reference_reversal(
                        reference_snapshot(back, image_check(image, q).j), q1)
                    assert reverse_trace(back, q1) == [trace_line(st) for st in reversal]
                    for before, after in zip(reversal, reversal[1:]):
                        assert reverse_step(before, q1) == after


@pytest.mark.parametrize("state,q1,message", TAMPERED,
                         ids=[message for _, _, message in TAMPERED])
def test_tampered_snapshot_raises(state, q1, message):
    if q1 is None:
        assert raised_message(process_step, state, None) == message
        assert raised_message(reference_process_step, state, None) == message
    else:
        assert raised_message(reverse_step, state, q1) == message
        assert raised_message(reference_reverse_step, state, q1) == message


def test_every_step_checks_every_block():
    # the second step targets the last block again, and only a check of
    # block 0, in front of the target, sees that its leader's rank is no
    # longer below block 1's
    run = processing._Run(((1,), (2,), (3, 4)), (0, 0, 2))
    assert run.step()
    run.rank[1] = run.top + 1
    with pytest.raises(AssertionError,
                       match="^blocks are not increasing by leader in the current order$"):
        run.step()


@st.composite
def distinguished_forests(draw, max_s=8):
    """A valued A-distinguished forest of [s], s <= max_s: min-led blocks,
    the non-A ones increasing by leader, then the A ones decreasing."""
    s = draw(st.integers(min_value=1, max_value=max_s))
    perm = draw(st.permutations(range(1, s + 1)))
    cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=s - 1)))) if s > 1 else []
    blocks = [perm[a:b] for a, b in zip([0] + cuts, cuts + [s])]
    blocks = [tuple([min(b)] + [x for x in b if x != min(b)]) for b in blocks]
    in_a = draw(st.lists(st.booleans(), min_size=len(blocks), max_size=len(blocks)))
    plain = sorted((b for b, a in zip(blocks, in_a) if not a), key=lambda b: b[0])
    dist = sorted((b for b, a in zip(blocks, in_a) if a), key=lambda b: -b[0])
    values = draw(st.lists(st.integers(min_value=0, max_value=3),
                           min_size=len(blocks), max_size=len(blocks)))
    return Distinguished(tuple(plain + dist), tuple(values),
                         frozenset(x for b in dist for x in b))


@settings(max_examples=200, deadline=None)
@given(distinguished_forests())
def test_round_trip_on_long_tails(d):
    image = phi(d)
    assert image == reference_phi(d)
    assert phi_inverse(image, len(d.aset) + sum(d.values)) == d
    nondist, _ = non_a_part(image)
    assert phi_trace(d)[-1].split(" | ")[0] == format_valued(*nondist)


# ---------------------------------------------------------------------------
# reference checks: the forest checks with one pass per rule, the split
# searches that sum each candidate balance anew, and the image-candidate
# walk over every ordered chain forest for each budget, as they were
# before the single-pass rewrite; the rewrite must agree with them on
# every verdict, split index, message and candidate, order included


def reference_a_split(d):
    blocks, _, aset = d
    split = len(blocks)
    for idx, b in enumerate(blocks):
        if aset.isdisjoint(b):
            if idx > split:
                return split, "non-A block after an A block"
        elif aset.issuperset(b):
            split = min(split, idx)
        else:
            return split, f"block {b} mixes A and non-A elements"
    cpart = blocks[split:]
    if set(forests.flatten(cpart)) != set(aset):
        return split, "A blocks do not cover A exactly"
    for b in cpart:
        if b[0] != min(b):
            return split, f"A block {b} leader is not its minimum"
    if any(cpart[i][0] < cpart[i + 1][0] for i in range(len(cpart) - 1)):
        return split, "A blocks are not decreasing by leader"
    return split, None


def reference_check_distinguished(d):
    """The split index check_distinguished returns, or the message it raises."""
    if violation := forests._shape_violation(d.blocks, d.values):
        return violation
    split, violation = reference_a_split(d)
    if violation:
        return violation
    bpart = d.blocks[:split]
    for b in bpart:
        if forests.block_weight(b) != 0:
            return f"block {b} has nonzero weight"
    if not forests.is_naturally_ordered(bpart):
        return "non-A blocks are not increasing by leader"
    return split


def reference_image_check(d, q):
    """(accepted, j, reason) of image_check(d, q), with no class given."""
    blocks, values, aset = d
    if violation := forests._shape_violation(blocks, values):
        return False, None, f"condition 0: {violation}"
    split, violation = reference_a_split(d)
    if violation:
        return False, None, f"condition 1: {violation}"
    bpart = blocks[:split]
    r = len(bpart)
    weights = [forests.block_weight(b) for b in bpart]
    rest = len(aset) + sum(values[split:])
    for j in range(r + 1):
        lhs = (sum(weights[:r - j])
               + sum(len(b) + values[i] for i, b in enumerate(bpart) if i >= r - j)
               + rest)
        if lhs == q:
            break
    else:
        return False, None, "condition 4: no split index balances the budget"
    if not all(b[0] == min(b) for b in bpart[r - j:]):
        return False, None, "condition 2: a trailing block leader is not its minimum"
    if not forests.is_naturally_ordered(bpart[r - j:]):
        return False, None, "condition 2: trailing blocks not increasing by leader"
    if not forests.is_naturally_ordered(bpart[:r - j]):
        return False, None, "condition 3: leading blocks not increasing by leader"
    if any(values[i] != 0 for i in range(r - j)):
        return False, None, "condition 3: a leading block has nonzero value"
    return True, j, None


def reference_reconstruct(valued, q1):
    """The snapshot reconstruct_state returns; raises its ReverseErrors."""
    blocks, values = valued
    r = len(blocks)
    weights = [forests.block_weight(b) for b in blocks]
    for j in range(r + 1):
        if sum(weights[:r - j]) + sum(len(b) for b in blocks[r - j:]) + sum(values) == q1:
            break
    else:
        raise ReverseError(f"no split index balances the budget {q1}")
    if not all(b[0] == min(b) for b in blocks[r - j:]):
        raise ReverseError("a trailing all-processed block has nonzero weight")
    state = reference_snapshot(valued, j)
    if j < r and state.processed.issuperset(blocks[r - j - 1]):
        raise ReverseError("split index inconsistent with the processed set")
    return state


def reference_image_candidates(q, s):
    for blocks in all_ordered_chain_forests(range(1, s + 1)):
        kk = len(blocks)
        min_led = [b[0] == min(b) for b in blocks]
        leaders = [b[0] for b in blocks]
        p_max = 0
        while p_max < kk and min_led[kk - 1 - p_max] and \
                (p_max == 0 or leaders[kk - 1 - p_max] > leaders[kk - p_max]):
            p_max += 1
        prefix_natural = [True] * (kk + 1)
        for i in range(1, kk + 1):
            prefix_natural[i] = prefix_natural[i - 1] and \
                (i < 2 or leaders[i - 2] < leaders[i - 1])
        for p in range(p_max + 1):
            r = kk - p
            bpart, cpart = blocks[:r], blocks[r:]
            aset = frozenset(x for b in cpart for x in b)
            j_max = 0
            while j_max < r and min_led[r - 1 - j_max] and \
                    (j_max == 0 or leaders[r - 1 - j_max] < leaders[r - j_max]):
                j_max += 1
            for j in range(j_max + 1):
                if not prefix_natural[r - j]:
                    continue
                base = sum(forests.block_weight(b) for b in bpart[:r - j]) + \
                    sum(len(b) for b in bpart[r - j:]) + len(aset)
                if q - base < 0:
                    continue
                for comp in forests.compositions(q - base, j + p):
                    yield Distinguished(blocks, (0,) * (r - j) + comp, aset)


def outcome(fn, *args):
    """What fn returns, or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


class TestAgainstReferenceChecks:
    def test_checks_agree_on_the_brute_force_grid(self):
        # every ordered chain forest, A and value vector, s <= 3, q <= 3
        from itertools import chain, combinations

        for s in range(0, 4):
            subsets = [frozenset(c) for c in chain.from_iterable(
                combinations(range(1, s + 1), size) for size in range(s + 1))]
            for blocks in all_ordered_chain_forests(range(1, s + 1)):
                for aset in subsets:
                    for total in range(4):
                        for values in forests.compositions(total, len(blocks)):
                            d = Distinguished(blocks, values, aset)
                            assert outcome(forests.check_distinguished, d) == \
                                reference_check_distinguished(d), d
                            for q in range(4):
                                assert tuple(image_check(d, q)) == \
                                    reference_image_check(d, q), (d, q)
                    if not aset:
                        for values in forests.compositions(3, len(blocks)):
                            valued = Valued(blocks, values)
                            for q1 in range(9):
                                assert outcome(reconstruct_state, valued, q1) == \
                                    outcome(reference_reconstruct, valued, q1), (valued, q1)

    def test_image_candidates_equal_reference_multiset(self):
        # the order is free, as run_phi only tests membership, but every
        # candidate must come exactly as often as in the reference
        from collections import Counter

        from panehr import processing

        grid = [(s, q) for s in range(0, 5) for q in range(0, 7)] + \
            [(5, q) for q in range(0, 5)]
        processing._image_frames.cache_clear()
        for attempt in ("cold", "cached"):
            for s, q in grid:
                assert Counter(enumerate_image_candidates(q, s)) == \
                    Counter(reference_image_candidates(q, s)), (attempt, s, q)
        info = processing._image_frames.cache_info()
        assert info.hits > 0 and info.maxsize is not None  # the frame cache is bounded

    def test_processing_does_not_bind_the_brute_force_reference(self):
        # the reference candidates come from all_ordered_chain_forests, so
        # the code they check must not build its frames from it
        from panehr import processing

        assert not hasattr(processing, "all_ordered_chain_forests")


# Rows of run_phi and run_involution over the enumerate benchmark's grid
# (s <= 4, q <= 6): the sha256 of their describe() lines, joined by
# newlines, pinned on the kernel as it was before the single-pass checks.
GOLDEN_ROWS_SHA256 = "5f8fba920c4de45ef60ec6e30884b9aa4107c9f17831799893e101be286ef2bc"


def test_battery_rows_match_the_golden_digest():
    import hashlib

    from panehr import campaigns

    lines = [row.describe() for runner in (campaigns.run_phi, campaigns.run_involution)
             for unit in campaigns.units_by_sq(4, 6) for row in runner(**unit)]
    assert len(lines) == 168
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == GOLDEN_ROWS_SHA256


def test_the_pairing_reads_its_sign_from_the_split(monkeypatch):
    from panehr import processing

    counted = []
    original = processing.distinguished_block_count
    monkeypatch.setattr(processing, "distinguished_block_count",
                        lambda d: counted.append(d) or original(d))
    for s in range(1, 5):
        for q in range(4):
            for d in forests.iter_dcf(q, s):
                minus = original(d) % 2 == 1
                counted.clear()
                assert not (positive_side(d) and minus)
                assert counted == []
                if minus:
                    y = involution_f(d)
                    # only the check of the result counts A blocks: d's sign
                    # comes from the split, and phi_inverse splits the image
                    # it inverts with one scan back from its last block
                    assert counted == [y]


# ---------------------------------------------------------------------------
# the order-pattern memos: phi and its reversal run once per pattern of
# the non-A part, and a hit must return exactly what the kernel returns on
# the caller's own elements


def clear_memos():
    for table in (processing._FORWARD, processing._BACKWARD, processing._SHARED):
        table.clear()


def memo_off():
    """Every call runs the kernel directly on the caller's elements."""
    return mock.patch.object(processing, "_memoized",
                             lambda memo, kernel, *args: kernel(*args))


def outcome_repr(fn, *args):
    """What fn returns, by repr so that 1, 1.0 and True differ, or the type
    and message of what it raises."""
    try:
        return "returned", repr(fn(*args))
    except Exception as exc:  # the comparison is the point: any raise counts
        return "raised", type(exc).__name__, str(exc)


def entry_point_outcomes(d):
    """The outcome of each memoized entry point on d, and of phi_inverse on
    the image of d for d's own budget q."""
    q = len(d.aset) + sum(d.values)
    image = outcome_repr(phi, d)
    out = [image, outcome_repr(positive_side, d), outcome_repr(involution_f, d)]
    if image[0] == "returned":
        out.append(outcome_repr(phi_inverse, phi(d), q))
    return out


def direct_phi(d):
    """phi of d by one _Run on d's own elements, and the split index j."""
    split = forests.check_distinguished(d)
    run = processing._Run(d.blocks[:split], d.values[:split])
    run.run()
    j = 0
    while j < split and run.all_done(split - 1 - j):
        j += 1
    return Distinguished(run.blocks() + d.blocks[split:],
                         tuple(run.values) + d.values[split:], d.aset), j


def direct_phi_inverse(d, q):
    """phi_inverse of d by one reversed _Run on d's own elements."""
    split = len(d.blocks) - forests.distinguished_block_count(d)
    q1 = q - len(d.aset) - sum(d.values[split:])
    run = processing._Run.at_split(d.blocks[:split], d.values[:split], image_check(d, q).j)
    while run.stack:
        run.unstep(q1)
    return Distinguished(run.blocks() + d.blocks[split:],
                         tuple(run.values) + d.values[split:], d.aset)


@st.composite
def labelled_forests(draw, max_s=7):
    """A forest of distinguished_forests carried onto a random set of
    positive ints in the same relative order, so labels above s and gaps
    are common; the forest on [s] comes with it."""
    plain = draw(distinguished_forests(max_s))
    s = sum(map(len, plain.blocks))
    labels = sorted(draw(st.sets(st.integers(min_value=1, max_value=300),
                                 min_size=s, max_size=s)))
    new = dict(zip(range(1, s + 1), labels)).__getitem__
    return Distinguished(tuple(tuple(map(new, b)) for b in plain.blocks), plain.values,
                         frozenset(map(new, plain.aset))), plain


class TestOrderPatternMemo:
    @settings(max_examples=150, deadline=None)
    @given(labelled_forests())
    def test_a_hit_is_the_direct_run(self, forests_pair):
        d, plain = forests_pair
        q = len(d.aset) + sum(d.values)
        image, j = direct_phi(d)
        assert direct_phi_inverse(image, q) == d
        with memo_off():
            expected = {f: entry_point_outcomes(f) for f in (d, plain)}
        clear_memos()
        for attempt in ("cold", "warm"):
            assert phi(d) == image, attempt
            assert positive_side(d) == (not negative_side(d) and (bool(d.aset) or j >= 1))
            assert phi_inverse(image, q) == d
            assert entry_point_outcomes(d) == expected[d], attempt
        # the forest on [s] has the same patterns, so what d stored serves it
        stored = len(processing._FORWARD), len(processing._BACKWARD)
        assert entry_point_outcomes(plain) == expected[plain]
        assert (len(processing._FORWARD), len(processing._BACKWARD)) == stored

    def test_every_small_forest_agrees_with_the_direct_run(self):
        clear_memos()
        for s in range(0, 5):
            for q in range(0, 4):
                for d in forests.iter_dcf(q, s):
                    # shifted up by 5: the same patterns on other labels
                    shifted = Distinguished(tuple(tuple(x + 5 for x in b) for b in d.blocks),
                                            d.values, frozenset(x + 5 for x in d.aset))
                    for f in (d, shifted):
                        image, _ = direct_phi(f)
                        assert phi(f) == image
                        assert phi_inverse(image, q) == direct_phi_inverse(image, q) == f

    # input whose elements or values are not plain ints, which the
    # relabelling would not preserve: a leader 0 is not above the empty
    # stack's 0, -1 indexes the flags from the end, and a run would carry
    # the caller's bools and floats.  The shape rule rejects each one.
    ELEMENTS, VALUES = "elements must be positive ints", "values must be ints"
    ODD = [
        pytest.param(Distinguished(((0, 1),), (2,), frozenset()), ELEMENTS, id="zero-leader"),
        pytest.param(Distinguished(((0,), (1, 2)), (1, 1), frozenset()), ELEMENTS,
                     id="zero-block"),
        pytest.param(Distinguished(((0,),), (0,), frozenset()), ELEMENTS, id="zero-accepted"),
        pytest.param(Distinguished(((-1, 2),), (1,), frozenset()), ELEMENTS,
                     id="negative-leader"),
        pytest.param(Distinguished(((-1,), (0, 2), (3,)), (1, 0, 1), frozenset({3})), ELEMENTS,
                     id="negative-with-a"),
        pytest.param(Distinguished(((True, 3), (2,)), (1, 1), frozenset()), ELEMENTS,
                     id="bool-leader"),
        pytest.param(Distinguished(((True,), (3,), (2,)), (1, 0, 0), frozenset({2})), ELEMENTS,
                     id="bool-block-with-a"),
        pytest.param(Distinguished(((1.0, 3), (2,)), (1, 0), frozenset()), ELEMENTS,
                     id="float-leader"),
        pytest.param(Distinguished(((1, 3), (2,)), (1.0, 1), frozenset()), VALUES,
                     id="float-value"),
        pytest.param(Distinguished(((1,), (2,)), (0.5, 0.5), frozenset()), VALUES,
                     id="half-values"),
        pytest.param(Distinguished(((1, 3), (2,)), (True, 0), frozenset()), VALUES,
                     id="bool-value"),
        pytest.param(Distinguished(((1,), (3,), (2,)), (2.0, 0, 0), frozenset({2})), VALUES,
                     id="float-value-with-a"),
        pytest.param(Distinguished(((1,), (2,)), (False, True), frozenset({2})), VALUES,
                     id="bool-values-with-a"),
    ]

    @pytest.mark.parametrize("d, rule", ODD)
    def test_odd_input_is_rejected(self, d, rule):
        clear_memos()
        valued, q = Valued(d.blocks, d.values), len(d.aset) + sum(d.values)
        calls = [(phi, d), (positive_side, d), (involution_f, d), (phi_trace, d),
                 (run_processing, valued), (process_step, initial_state(valued)),
                 (reverse_step, initial_state(valued), q), (reconstruct_state, valued, q),
                 (reverse_trace, valued, q)]
        for fn, *args in calls:
            with pytest.raises(ValueError, match=f"^{rule}$"):
                fn(*args)
        with pytest.raises(ValueError, match=f"^not in the image of phi: condition 0: {rule}$"):
            phi_inverse(d, q)
        assert tuple(image_check(d, q)) == (False, None, f"condition 0: {rule}")
        assert not (processing._FORWARD or processing._BACKWARD or processing._SHARED)

    def test_a_zero_leader_is_rejected(self):
        with pytest.raises(ValueError, match="^elements must be positive ints$"):
            phi(Distinguished(((0, 1),), (2,), frozenset()))

    def test_a_float_budget_changes_no_output(self):
        # a float budget enters the backward key as q1, where 3.0 == 3, so
        # a float and an int budget share one entry; the kernel only
        # compares q1, so every result keeps its value and its ints
        cases = [(d, phi(d), q) for s in range(5) for q in range(4) for d in forests.iter_dcf(q, s)]

        def ints(d):
            return all(type(x) is int for x in (*flatten(d.blocks), *d.values, *d.aset))

        for kinds in ((float, int), (int, float)):
            clear_memos()
            for attempt in ("cold", "warm"):
                for d, image, q in cases:
                    for kind in kinds:
                        back = phi_inverse(image, kind(q))
                        assert back == d and ints(back), (kinds, attempt, d)
            for d, image, q in cases:
                assert phi(d) == image and ints(phi(d))
                plus = positive_side(d)
                assert type(plus) is bool
                assert plus == (not negative_side(d) and (bool(d.aset) or
                                                          image_check(image, q).j >= 1))
                if negative_side(d):
                    paired = involution_f(d)
                    assert ints(paired) and positive_side(paired)
                assert phi_inverse(image, q) == d and ints(phi_inverse(image, q))
            assert all(type(entry[-1]) is int for entry in processing._FORWARD.values())

    def test_the_memos_share_their_tuples(self):
        clear_memos()
        for s in range(5):
            for q in range(4):
                for d in forests.iter_dcf(q, s):
                    phi_inverse(phi(d), q)
        shared = processing._SHARED
        assert shared and all(type(x) is tuple for x in shared)
        # a forward entry ends in j, a backward key in j and q1
        for memo, key_ints, entry_ints in ((processing._FORWARD, 0, 1),
                                           (processing._BACKWARD, 2, 0)):
            assert memo
            for key, entry in memo.items():
                for items, ints in ((key, key_ints), (entry, entry_ints)):
                    cut = len(items) - ints
                    assert all(shared[t] is t for t in items[:cut]), (key, entry)
                    assert all(type(x) is int for x in items[cut:]), (key, entry)

    def test_the_memos_stay_within_their_bound(self, monkeypatch):
        cases = [(d, q) for s in range(0, 5) for q in range(0, 4) for d in forests.iter_dcf(q, s)]
        with memo_off():
            expected = [(phi(d), phi_inverse(phi(d), q)) for d, q in cases]
        monkeypatch.setattr(processing, "_MEMO_BOUND", 16)
        clear_memos()
        tables = (processing._FORWARD, processing._BACKWARD, processing._SHARED)
        sizes, cleared = [0, 0, 0], set()
        for (d, q), (image, back) in zip(cases * 2, expected * 2):
            assert phi(d) == image
            assert phi_inverse(image, q) == back == d
            before, sizes = sizes, list(map(len, tables))
            assert max(sizes) <= 16
            cleared |= {i for i in range(3) if sizes[i] < before[i]}
        assert cleared == {0, 1, 2}

    def test_a_run_that_raises_is_not_stored(self, monkeypatch):
        clear_memos()
        image = phi(EXAMPLE_ONE)
        clear_memos()
        calls = []

        def broken(run):
            calls.append(run)
            raise AssertionError("an unprocessed element contributes weight")

        monkeypatch.setattr(processing._Run, "_check_invariants", broken)
        minus = Distinguished(((1,), (3,), (2,)), (1, 0, 0), frozenset({2}))
        for attempt in range(3):
            for fn, d in ((phi, EXAMPLE_ONE), (positive_side, EXAMPLE_ONE),
                          (involution_f, minus)):
                with pytest.raises(AssertionError, match="contributes weight"):
                    fn(d)
        assert len(calls) == 9
        assert not processing._FORWARD and not processing._SHARED

        def broken_unstep(run, q1):
            calls.append(q1)
            raise ReverseError("snapshot does not match the stated budget")

        monkeypatch.undo()
        monkeypatch.setattr(processing._Run, "unstep", broken_unstep)
        calls.clear()
        for attempt in range(3):
            with pytest.raises(ReverseError, match="stated budget"):
                phi_inverse(image, 3)
        assert calls == [3, 3, 3] and not processing._BACKWARD
        monkeypatch.undo()
        assert phi(EXAMPLE_ONE) == image and phi_inverse(image, 3) == EXAMPLE_ONE

    def test_battery_rows_do_not_depend_on_the_memo(self):
        from panehr import campaigns

        bounds = {"max_s": 4, "max_q": 3}
        clear_memos()
        cold = {name: campaigns.run_campaign(name, bounds) for name in ("phi", "involution")}
        assert processing._FORWARD and processing._BACKWARD
        warm = {name: campaigns.run_campaign(name, bounds) for name in ("phi", "involution")}
        assert cold == warm
        script = ("import json; from panehr import campaigns; print(json.dumps("
                  "{name: [row.describe() for row in campaigns.run_campaign(name, %r)] "
                  "for name in ('phi', 'involution')}))" % (bounds,))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        fresh = json.loads(done.stdout)
        assert fresh == {name: [row.describe() for row in rows] for name, rows in cold.items()}
        assert all(row.ok for rows in cold.values() for row in rows)
