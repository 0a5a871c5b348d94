"""Property-based tests of the self-consistency vote (paper Eq. 3)."""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.refinement import RefinedCandidate, vote
from repro.execution.executor import ExecutionOutcome, ExecutionStatus


@st.composite
def candidates(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    out = []
    for i in range(n):
        status = draw(
            st.sampled_from(
                [
                    ExecutionStatus.OK,
                    ExecutionStatus.EMPTY,
                    ExecutionStatus.SYNTAX_ERROR,
                ]
            )
        )
        rows = ()
        if status is ExecutionStatus.OK:
            value = draw(st.integers(min_value=0, max_value=3))
            rows = ((value,),)
        out.append(
            RefinedCandidate(
                raw_sql=f"sql{i}",
                aligned_sql=f"sql{i}",
                final_sql=f"sql{i}",
                outcome=ExecutionOutcome(
                    status=status,
                    rows=rows,
                    elapsed_seconds=draw(
                        st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
                    ),
                    # a narrow range, so groups often hold equal costs
                    steps=draw(st.integers(min_value=0, max_value=3)),
                ),
            )
        )
    return out


def result_key(candidate):
    return tuple(sorted(candidate.outcome.rows))


class TestVoteProperties:
    @settings(max_examples=200, deadline=None)
    @given(candidates())
    def test_winner_is_valid_or_none(self, cands):
        winner = vote(cands)
        ok = [c for c in cands if c.outcome.status is ExecutionStatus.OK]
        if not ok:
            assert winner is None
        else:
            assert winner in ok

    @settings(max_examples=200, deadline=None)
    @given(candidates())
    def test_winner_belongs_to_a_largest_group(self, cands):
        winner = vote(cands)
        ok = [c for c in cands if c.outcome.status is ExecutionStatus.OK]
        if winner is None:
            return
        sizes = {}
        for c in ok:
            sizes[result_key(c)] = sizes.get(result_key(c), 0) + 1
        assert sizes[result_key(winner)] == max(sizes.values())

    @settings(max_examples=200, deadline=None)
    @given(candidates())
    def test_winner_fastest_within_group(self, cands):
        # "fastest" is the fewest SQLite steps; equal steps go to the
        # first candidate of the group
        winner = vote(cands)
        if winner is None:
            return
        group = [
            c
            for c in cands
            if c.outcome.status is ExecutionStatus.OK
            and result_key(c) == result_key(winner)
        ]
        cheapest = min(c.outcome.steps for c in group)
        assert winner is next(c for c in group if c.outcome.steps == cheapest)

    @settings(max_examples=200, deadline=None)
    @given(candidates(), st.data())
    def test_wall_time_never_changes_the_pick(self, cands, data):
        retimed = [
            replace(
                c,
                outcome=replace(
                    c.outcome,
                    elapsed_seconds=data.draw(
                        st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
                    ),
                ),
            )
            for c in cands
        ]
        winner, other = vote(cands), vote(retimed)
        if winner is None:
            assert other is None
        else:
            assert cands.index(winner) == retimed.index(other)

    @settings(max_examples=100, deadline=None)
    @given(candidates())
    def test_duplicating_the_winning_group_keeps_it_winning(self, cands):
        winner = vote(cands)
        if winner is None:
            return
        boosted = cands + [winner, winner]
        assert result_key(vote(boosted)) == result_key(winner)

    @settings(max_examples=100, deadline=None)
    @given(candidates())
    def test_order_of_errors_irrelevant(self, cands):
        winner = vote(cands)
        errors = [c for c in cands if c.outcome.status is not ExecutionStatus.OK]
        valid = [c for c in cands if c.outcome.status is ExecutionStatus.OK]
        reshuffled = errors + valid
        other = vote(reshuffled)
        if winner is None:
            assert other is None
        else:
            assert result_key(other) == result_key(winner)
