"""Dynamic few-shot: masked question similarity and the Query-CoT-SQL store.

The paper (§3.2) retrieves few-shots by Masked Question similarity (MQs):
literals and numbers are masked out of the question so retrieval matches
question *structure* rather than the specific values mentioned, then the
top-K similar train questions contribute their self-taught Query-CoT-SQL
renditions to the prompt.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from repro.datasets.types import Example
from repro.embedding.index import FlatIndex, VectorIndex
from repro.embedding.hnsw import HNSWIndex
from repro.embedding.vectorizer import HashingVectorizer

__all__ = ["mask_question", "sql_skeleton", "FewShotExample", "FewShotLibrary"]

_NUMBER = re.compile(r"\b\d[\d.,:-]*\b")
_QUOTED = re.compile(r"'[^']*'|\"[^\"]*\"")


def mask_question(question: str, surfaces: tuple[str, ...] = ()) -> str:
    """Mask literal values out of a question (MQs desemanticization).

    Known value surfaces (from the example's mentions) are replaced first,
    then quoted strings and numbers; capitalized mid-sentence tokens are
    left alone (they may be schema words, which *should* influence
    similarity).
    """
    masked = question
    for surface in sorted(surfaces, key=len, reverse=True):
        if surface:
            masked = masked.replace(surface, "<mask>")
    masked = _QUOTED.sub("<mask>", masked)
    masked = _NUMBER.sub("<mask>", masked)
    return masked


def sql_skeleton(sql: str) -> str:
    """Mask every literal out of a SQL string (DAIL-SQL's skeleton view).

    Used by the Query-Skeleton-SQL few-shot format (a §3.8 extension): the
    skeleton shows the query *shape* without binding the example's values.
    Unparseable SQL is returned unchanged.
    """
    from repro.sqlkit.ast import Literal
    from repro.sqlkit.parser import ParseError, parse_select
    from repro.sqlkit.render import render
    from repro.sqlkit.tokenizer import TokenizeError
    from repro.sqlkit.transform import map_expressions

    try:
        select = parse_select(sql)
    except (ParseError, TokenizeError):
        return sql

    def mask(expr):
        if isinstance(expr, Literal) and expr.kind != "null":
            return Literal.string("?") if expr.kind == "string" else Literal.number(0)
        return None

    return render(map_expressions(select, mask))


@dataclass(frozen=True)
class FewShotExample:
    """One library entry: the train example plus its self-taught CoT."""

    example: Example
    cot_text: str
    masked_question: str

    def render(self, style: str) -> str:
        """Render in the paper's Listing 1 (Query-SQL) or Listing 2
        (Query-CoT-SQL) format."""
        header = f"/* Answer the following: {self.example.question} */"
        if style == "query_sql":
            return f"{header}\n#SQL: {self.example.gold_sql}"
        if style == "query_cot_sql":
            return f"{header}\n{self.cot_text}"
        if style == "query_skeleton_sql":
            skeleton = sql_skeleton(self.example.gold_sql)
            return (
                f"{header}\n#skeleton: {skeleton}\n"
                f"#SQL: {self.example.gold_sql}"
            )
        raise ValueError(f"unknown few-shot style {style!r}")


class FewShotLibrary:
    """The preprocessed few-shot store with MQs retrieval."""

    def __init__(
        self,
        vectorizer: Optional[HashingVectorizer] = None,
        index_kind: str = "flat",
        seed: int = 0,
    ):
        self.vectorizer = vectorizer or HashingVectorizer()
        if index_kind == "hnsw":
            self._index: VectorIndex = HNSWIndex(self.vectorizer.dimensions, seed=seed)
        else:
            self._index = FlatIndex(self.vectorizer.dimensions)
        self._entries: dict[str, FewShotExample] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, entry: FewShotExample) -> None:
        """Index one entry (duplicate question ids are rejected)."""
        if entry.example.question_id in self._entries:
            raise ValueError(f"duplicate few-shot {entry.example.question_id}")
        self._entries[entry.example.question_id] = entry
        vector = self.vectorizer.embed(entry.masked_question)
        self._index.add(entry.example.question_id, vector, payload=entry)

    def search(
        self,
        question: str,
        surfaces: tuple[str, ...] = (),
        k: int = 5,
        db_id: Optional[str] = None,
    ) -> list[FewShotExample]:
        """Top-``k`` few-shots by masked-question similarity.

        ``db_id`` optionally restricts matches to the same database (the
        paper retrieves across the whole train set; cross-database shots
        are useful because MQs matches structure, so we only use ``db_id``
        to *exclude the question's own database twin* in leakage tests).
        """
        if k <= 0 or not self._entries:
            return []
        masked = mask_question(question, surfaces)
        query = self.vectorizer.embed(masked)
        hits = self._index.search(query, k=max(k * 3, k))
        out: list[FewShotExample] = []
        for hit in hits:
            entry: FewShotExample = hit.payload  # type: ignore[assignment]
            if db_id is not None and entry.example.db_id != db_id:
                continue
            out.append(entry)
            if len(out) >= k:
                break
        return out
