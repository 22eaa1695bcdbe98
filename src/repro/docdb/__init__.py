"""An embedded MongoDB-equivalent document store.

The paper stores all measurements in MongoDB (§4.2.1) — three
collections (``availableServers``, ``paths``, ``paths_stats``), compound
string ids, heterogeneous documents, and later queries for path
selection.  This package provides the same surface offline:

* Mongo-style filter documents (``$gt``, ``$in``, ``$regex``, ``$or``,
  dotted paths, ...) and update operators (``$set``, ``$inc``,
  ``$push``, ...),
* single-field **and compound** indexes with cost-based query planning
  (selectivity estimates from index cardinality statistics) and
  ``Collection.explain()`` plan documents,
* an LRU+TTL query-result cache with epoch-based invalidation (one
  epoch bump per write *operation*, so batched campaign flushes
  invalidate once per batch),
* an aggregation-pipeline subset (``$match``, ``$group``, ``$sort``,
  ``$unwind``, ...) with leading-``$match`` index pushdown,
* JSONL snapshot persistence plus a checksummed write-ahead log with
  crash recovery,
* certificate-based write access control and signed-document
  verification (the paper's §4.1.4 security design).

See ``docs/DATABASE.md`` for the complete query-language reference.
"""

from repro.docdb.document import new_object_id, normalize_document
from repro.docdb.query import matches, supported_operators
from repro.docdb.update import apply_update
from repro.docdb.collection import Collection, InsertManyResult, UpdateResult, DeleteResult
from repro.docdb.index import CompoundIndex, FieldIndex
from repro.docdb.planner import QueryPlanner, format_plan
from repro.docdb.cache import QueryCache, freeze
from repro.docdb.database import Database
from repro.docdb.client import DocDBClient
from repro.docdb.storage import JsonlStore
from repro.docdb.wal import WAL_OPS, WalRecord, WalWriter
from repro.docdb.recovery import (
    Checkpoint,
    CheckpointResult,
    RecoveryManager,
    RecoveryReport,
    run_checkpoint,
)
from repro.docdb.auth import AccessController, Role, SignedDocumentVerifier

__all__ = [
    "new_object_id",
    "normalize_document",
    "matches",
    "supported_operators",
    "apply_update",
    "Collection",
    "InsertManyResult",
    "UpdateResult",
    "DeleteResult",
    "FieldIndex",
    "CompoundIndex",
    "QueryPlanner",
    "QueryCache",
    "format_plan",
    "freeze",
    "Database",
    "DocDBClient",
    "JsonlStore",
    "WalWriter",
    "WalRecord",
    "WAL_OPS",
    "RecoveryManager",
    "RecoveryReport",
    "Checkpoint",
    "CheckpointResult",
    "run_checkpoint",
    "AccessController",
    "Role",
    "SignedDocumentVerifier",
]
