"""Benchmark persistence: save a built benchmark to a directory and load
it back.

Layout (mirrors how BIRD distributes its data)::

    <root>/
      manifest.json                 # name + db ids
      databases/<db_id>.sqlite      # one SQLite file per database
      databases/<db_id>.schema.json # descriptions (lost by raw SQLite DDL)
      train.jsonl dev.jsonl test.jsonl

Loading re-opens the SQLite files (read into fresh in-memory connections so
a loaded benchmark is safe to use concurrently) and re-attaches the schema
descriptions.
"""

from __future__ import annotations

import json
import sqlite3
from dataclasses import asdict, replace
from pathlib import Path
from typing import Union

from repro.datasets.build import Benchmark, BuiltDatabase
from repro.datasets.types import Example, ValueMention
from repro.execution.executor import connect_in_memory
from repro.schema.introspect import introspect_sqlite
from repro.schema.model import Database

__all__ = ["save_benchmark", "load_benchmark"]


def _example_to_dict(example: Example) -> dict:
    payload = asdict(example)
    payload["value_mentions"] = [asdict(m) for m in example.value_mentions]
    payload["traits"] = list(example.traits)
    return payload


def _example_from_dict(payload: dict) -> Example:
    mentions = tuple(
        ValueMention(**mention) for mention in payload.pop("value_mentions", [])
    )
    traits = tuple(payload.pop("traits", []))
    return Example(value_mentions=mentions, traits=traits, **payload)


def _schema_metadata(schema: Database) -> dict:
    return {
        "name": schema.name,
        "description": schema.description,
        "tables": {
            table.name: {
                "description": table.description,
                "columns": {
                    column.name: {
                        "description": column.description,
                        "value_examples": list(column.value_examples),
                    }
                    for column in table.columns
                },
            }
            for table in schema.tables
        },
    }


def _apply_schema_metadata(schema: Database, metadata: dict) -> Database:
    tables = []
    for table in schema.tables:
        info = metadata.get("tables", {}).get(table.name, {})
        columns = []
        for column in table.columns:
            column_info = info.get("columns", {}).get(column.name, {})
            columns.append(
                replace(
                    column,
                    description=column_info.get("description", ""),
                    value_examples=tuple(column_info.get("value_examples", ())),
                )
            )
        tables.append(
            replace(table, description=info.get("description", ""), columns=tuple(columns))
        )
    return replace(
        schema,
        tables=tuple(tables),
        description=metadata.get("description", ""),
        name=metadata.get("name", schema.name),
    )


def save_benchmark(benchmark: Benchmark, root: Union[str, Path]) -> Path:
    """Write ``benchmark`` under ``root``; returns the root path."""
    root = Path(root)
    (root / "databases").mkdir(parents=True, exist_ok=True)

    manifest = {"name": benchmark.name, "databases": sorted(benchmark.databases)}
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2))

    for db_id, built in benchmark.databases.items():
        target = root / "databases" / f"{db_id}.sqlite"
        if target.exists():
            target.unlink()
        disk = sqlite3.connect(target)
        built.connection.backup(disk)
        disk.close()
        (root / "databases" / f"{db_id}.schema.json").write_text(
            json.dumps(_schema_metadata(built.schema), indent=2)
        )

    for split in ("train", "dev", "test"):
        with (root / f"{split}.jsonl").open("w", encoding="utf-8") as handle:
            for example in benchmark.split(split):
                handle.write(json.dumps(_example_to_dict(example)) + "\n")
    return root


def load_benchmark(root: Union[str, Path]) -> Benchmark:
    """Load a benchmark previously written by :func:`save_benchmark`.

    Database contents are copied into in-memory connections, so the loaded
    benchmark behaves exactly like a freshly built one.
    """
    root = Path(root)
    manifest = json.loads((root / "manifest.json").read_text())
    databases: dict[str, BuiltDatabase] = {}
    for db_id in manifest["databases"]:
        disk = sqlite3.connect(root / "databases" / f"{db_id}.sqlite")
        memory = connect_in_memory()
        disk.backup(memory)
        disk.close()
        metadata = json.loads(
            (root / "databases" / f"{db_id}.schema.json").read_text()
        )
        schema = introspect_sqlite(memory, name=db_id, value_examples=0)
        schema = _apply_schema_metadata(schema, metadata)
        databases[db_id] = BuiltDatabase(schema=schema, connection=memory)

    benchmark = Benchmark(name=manifest["name"], databases=databases)
    for split in ("train", "dev", "test"):
        path = root / f"{split}.jsonl"
        if not path.exists():
            continue
        with path.open(encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    benchmark.split(split).append(_example_from_dict(json.loads(line)))
    return benchmark
