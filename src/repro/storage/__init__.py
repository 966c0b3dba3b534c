"""The Sedna physical representation of Section 9.

Descriptive schema (9.1), data blocks and node descriptors (9.2), and
the numbering scheme (9.3), assembled by :class:`StorageEngine` — plus
the durability layer that pairs with it: write-ahead log, transactions,
atomic checkpoints/recovery, and the fault-injection harness that
exercises them.
"""

from repro.storage.backends import (
    BACKENDS,
    DEFAULT_MAX_SNAPSHOTS,
    FileBackend,
    MemoryBackend,
    SnapshotInfo,
    SqliteBackend,
    StorageBackend,
    schema_fingerprint,
    snapshot_version,
)
from repro.storage.blocks import Block
from repro.storage.descriptor import (
    NO_SLOT,
    NodeDescriptor,
)
from repro.storage.dschema import DescriptiveSchema, SchemaNode
from repro.storage.engine import StorageEngine
from repro.storage.faults import (
    CRASH_POINTS,
    SESSION_CRASH_POINTS,
    CrashError,
    FaultPlan,
)
from repro.storage.indexes import (
    IndexDefinition,
    IndexManager,
    ValueIndex,
)
from repro.storage.persist import dumps_engine, load_engine
from repro.storage.recovery import (
    RecoveryError,
    RecoveryResult,
    recover,
)
from repro.storage.txn import Transaction, TransactionManager
from repro.storage.wal import (
    FileWalStore,
    MemoryWalStore,
    WalRecord,
    WalScan,
    WalStore,
    WriteAheadLog,
    read_wal_store,
    scan_wal,
)
from repro.storage.store import StorageNodeStore, schema_type_annotations
from repro.storage.labels import (
    NidLabel,
    NumberingScheme,
    before,
    compare,
    equal,
    is_ancestor,
    is_parent,
    label_length_stats,
)

__all__ = [
    "BACKENDS",
    "Block",
    "CRASH_POINTS",
    "SESSION_CRASH_POINTS",
    "CrashError",
    "DEFAULT_MAX_SNAPSHOTS",
    "DescriptiveSchema",
    "FaultPlan",
    "FileBackend",
    "FileWalStore",
    "MemoryBackend",
    "MemoryWalStore",
    "IndexDefinition",
    "IndexManager",
    "ValueIndex",
    "NO_SLOT",
    "NidLabel",
    "NodeDescriptor",
    "NumberingScheme",
    "RecoveryError",
    "RecoveryResult",
    "SchemaNode",
    "SnapshotInfo",
    "SqliteBackend",
    "StorageBackend",
    "StorageEngine",
    "StorageNodeStore",
    "Transaction",
    "TransactionManager",
    "WalRecord",
    "WalScan",
    "WalStore",
    "WriteAheadLog",
    "schema_fingerprint",
    "schema_type_annotations",
    "snapshot_version",
    "dumps_engine",
    "load_engine",
    "read_wal_store",
    "recover",
    "scan_wal",
    "before",
    "compare",
    "equal",
    "is_ancestor",
    "is_parent",
    "label_length_stats",
]
