"""Unit tests for the processing map, its reversal, image test, and pairing."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panehr import forests
from panehr.forests import Distinguished, Valued, format_distinguished, format_valued
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
from panehr.processing import (AlgorithmState, ReverseError, phi_trace, process_step,
                               reverse_step, reverse_trace)
raised = []
for state, q1, _ in TAMPERED:
    try:
        if q1 is None:
            process_step(state)
        else:
            reverse_step(state, q1)
        raised.append(None)
    except (AssertionError, ReverseError) as exc:
        raised.append(str(exc))
print(json.dumps({
    "optimize": sys.flags.optimize,
    "raised": raised,
    "one": phi_trace(Distinguished(((1, 6, 2), (3, 7, 5), (4,)), (2, 1, 0), frozenset())),
    "two": phi_trace(Distinguished(((1, 5, 3), (2,), (4, 7), (8,), (6,)),
                                   (2, 2, 1, 0, 1), frozenset({6, 8}))),
    "reverse": reverse_trace(Valued(((3, 1, 4), (5, 2, 6), (7,), (8,)), (0, 0, 0, 1)), 5),
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
                for blocks in forests.all_ordered_chain_forests(range(1, s + 1)):
                    k = len(blocks)
                    for aset in subsets:
                        for total in range(q + 1):
                            for values in forests.compositions(total, k):
                                d = Distinguished(blocks, values, aset)
                                if image_check(d, q):
                                    accepted.add(d)
                assert accepted == images, (s, q)

    def test_constructive_candidates_match_predicate(self):
        for s in range(1, 5):
            for q in range(0, 4):
                from_constructor = set(enumerate_image_candidates(q, s))
                for d in from_constructor:
                    assert image_check(d, q)
                assert from_constructor == {phi(d) for d in forests.iter_dcf(q, s)}

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
    from panehr import processing

    if q1 is None:
        assert raised_message(process_step, state, None) == message
        assert raised_message(reference_process_step, state, None) == message
        # a later step of a run checks from the block before the target on,
        # which still covers every block these snapshots break
        assert raised_message(lambda st: processing._Run.load(st).step(whole=False),
                              state, None) == message
    else:
        assert raised_message(reverse_step, state, q1) == message
        assert raised_message(reference_reverse_step, state, q1) == message


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
