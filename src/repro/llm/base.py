"""Core LLM interface types: responses, token accounting, client protocol."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional, Protocol, runtime_checkable

__all__ = ["TokenUsage", "ChatTurn", "LLMResponse", "LLMClient", "count_tokens"]

_TOKEN_PATTERN = re.compile(r"\w+|[^\w\s]")
#: words of 7+ characters, the only ones a surcharge applies to
_LONG_WORD = re.compile(r"\w{7,}")


def count_tokens(text: str) -> int:
    """Approximate token count of ``text``.

    Words and punctuation marks count one token each, plus a surcharge of
    ``(len - 1) // 6`` for long words (BPE splits them).  Close enough to
    GPT-style tokenizers for the cost accounting in Table 6; exactness is
    not required there.
    """
    return len(_TOKEN_PATTERN.findall(text)) + sum(
        (len(word) - 1) // 6 for word in _LONG_WORD.findall(text)
    )


@dataclass(frozen=True)
class TokenUsage:
    """Prompt/completion token counts for one or more LLM calls."""

    prompt_tokens: int = 0
    completion_tokens: int = 0

    @property
    def total_tokens(self) -> int:
        """Prompt plus completion tokens."""
        return self.prompt_tokens + self.completion_tokens

    def __add__(self, other: "TokenUsage") -> "TokenUsage":
        return TokenUsage(
            prompt_tokens=self.prompt_tokens + other.prompt_tokens,
            completion_tokens=self.completion_tokens + other.completion_tokens,
        )


@dataclass(frozen=True)
class ChatTurn:
    """One message of a chat prompt."""

    role: str  # "system" | "user" | "assistant"
    content: str


@dataclass(frozen=True)
class LLMResponse:
    """One completion: text plus accounting metadata."""

    text: str
    usage: TokenUsage = field(default_factory=TokenUsage)
    model: str = ""
    latency_seconds: float = 0.0


@runtime_checkable
class LLMClient(Protocol):
    """The protocol every model backend implements.

    ``complete`` returns ``n`` sampled completions for the prompt.  ``task``
    carries the structured payload of the request; API-backed clients must
    ignore it (everything needed is in the prompt text), while
    :class:`~repro.llm.simulated.SimulatedLLM` uses it to act without
    natural-language understanding.
    """

    model_name: str

    def complete(
        self,
        prompt: str,
        *,
        temperature: float = 0.0,
        n: int = 1,
        task: Optional[object] = None,
    ) -> list[LLMResponse]:
        ...
