"""The session layer: many concurrent sessions over one database.

Readers pin immutable MVCC-lite snapshots (committed state only,
keyed by checkpoint LSN + committed-WAL horizon); the single writer
holds an expiring, heartbeat-renewed intent lease with jittered-
backoff waiters and dead-letter events; admission control sheds load
with typed ``Overloaded`` responses instead of queuing unboundedly.
See DESIGN §14 for the architecture and the isolation guarantees.
"""

from repro.server.admission import (
    DEFAULT_MAX_QUEUE_DEPTH,
    DEFAULT_MAX_SESSIONS,
    DEFAULT_RETRY_AFTER,
    AdmissionController,
)
from repro.server.leases import (
    DEFAULT_BASE_BACKOFF,
    DEFAULT_MAX_BACKOFF,
    DEFAULT_TTL,
    Lease,
    LeaseManager,
)
from repro.server.server import (
    DEFAULT_ACQUIRE_TIMEOUT,
    DEFAULT_WORKERS,
    DatabaseServer,
    PendingRequest,
    RequestLoop,
)
from repro.server.session import (
    LeaseExpired,
    LeaseTimeout,
    Overloaded,
    Session,
    SessionClosed,
    SessionError,
    SessionExpired,
)
from repro.server.snapshots import (
    DEFAULT_MAX_CACHED,
    Snapshot,
    SnapshotManager,
)

__all__ = [
    "AdmissionController",
    "DEFAULT_ACQUIRE_TIMEOUT",
    "DEFAULT_BASE_BACKOFF",
    "DEFAULT_MAX_BACKOFF",
    "DEFAULT_MAX_CACHED",
    "DEFAULT_MAX_QUEUE_DEPTH",
    "DEFAULT_MAX_SESSIONS",
    "DEFAULT_RETRY_AFTER",
    "DEFAULT_TTL",
    "DEFAULT_WORKERS",
    "DatabaseServer",
    "Lease",
    "LeaseExpired",
    "LeaseManager",
    "LeaseTimeout",
    "Overloaded",
    "PendingRequest",
    "RequestLoop",
    "Session",
    "SessionClosed",
    "SessionError",
    "SessionExpired",
    "Snapshot",
    "SnapshotManager",
]
