"""LLM base type tests: token counting, usage arithmetic."""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm.base import LLMResponse, TokenUsage, count_tokens


def reference_count_tokens(text):
    """The per-match loop ``count_tokens`` was first written as."""
    tokens = 0
    for match in re.finditer(r"\w+|[^\w\s]", text):
        piece = match.group()
        tokens += 1 + max(0, (len(piece) - 1) // 6)
    return tokens


#: runs of Unicode letters, digits and underscores, up to long-word length
_WORDS = st.text(
    alphabet=st.one_of(st.characters(categories=("L", "Nd")), st.just("_")),
    min_size=1,
    max_size=40,
)
_GAPS = st.text(alphabet=" \t\n.,;:()'\"*=<>-%", min_size=1, max_size=3)


class TestCountTokens:
    def test_empty(self):
        assert count_tokens("") == 0

    def test_single_word(self):
        assert count_tokens("hello") == 1

    def test_words_and_punct(self):
        assert count_tokens("a, b") == 3

    def test_long_word_surcharge(self):
        assert count_tokens("internationalization") > 1

    def test_monotone_in_concatenation(self):
        a, b = "select count", "from table"
        assert count_tokens(a + " " + b) == count_tokens(a) + count_tokens(b)

    @settings(max_examples=60, deadline=None)
    @given(st.text(max_size=200))
    def test_nonnegative(self, text):
        assert count_tokens(text) >= 0

    @settings(max_examples=60, deadline=None)
    @given(st.text(min_size=1, max_size=100))
    def test_extension_monotone(self, text):
        assert count_tokens(text + " extra") >= count_tokens(text)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(_WORDS, _GAPS), max_size=30).map("".join))
    def test_matches_reference_on_words(self, text):
        assert count_tokens(text) == reference_count_tokens(text)

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=300))
    def test_matches_reference_on_any_text(self, text):
        assert count_tokens(text) == reference_count_tokens(text)

    def test_matches_reference_on_dev_prompts_and_completions(self, bird_dev_run):
        _results, calls = bird_dev_run
        for call in calls:
            assert count_tokens(call.prompt) == reference_count_tokens(call.prompt)
            for response in call.responses:
                assert count_tokens(response.text) == reference_count_tokens(
                    response.text
                )


class TestTokenUsage:
    def test_total(self):
        assert TokenUsage(10, 5).total_tokens == 15

    def test_add(self):
        total = TokenUsage(10, 5) + TokenUsage(1, 2)
        assert total == TokenUsage(11, 7)

    def test_default_zero(self):
        assert TokenUsage().total_tokens == 0

    def test_response_defaults(self):
        response = LLMResponse(text="hi")
        assert response.usage.total_tokens == 0
        assert response.latency_seconds == 0.0
