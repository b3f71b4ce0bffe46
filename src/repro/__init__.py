"""repro — a reproduction of Datometry Hyper-Q (SIGMOD 2018).

Adaptive Data Virtualization: run unmodified Teradata-dialect applications
against a different data warehouse by intercepting the wire protocol and
translating queries and results on the fly.

Quickstart::

    import repro

    hq = repro.virtualize()                # engine + in-memory cloud target
    session = hq.create_session()
    session.execute("CREATE TABLE T (A INTEGER, B VARCHAR(10))")
    session.execute("INS T (1, 'x')")      # Teradata shortcut syntax
    result = session.execute("SEL A FROM T QUALIFY RANK(A DESC) <= 1")
    print(result.rows)

Or over the wire, exactly like an unchanged application would::

    from repro import HyperQ, ServerThread, TdClient

    with ServerThread(HyperQ()) as (host, port):
        with TdClient(host, port) as client:
            client.execute("SEL * FROM T")
"""

from repro.backend.engine import Database
from repro.core.engine import (
    HQResult,
    HyperQ,
    HyperQSession,
    TranslationResult,
)
from repro.core.gateway import Gateway, GatewayConfig
from repro.core.tenancy import TenancyConfig, TenantRegistry
from repro.core.tracker import FeatureTracker
from repro.core.timing import RequestTiming, TimingLog
from repro.core.workload import WorkloadConfig, WorkloadManager
from repro.protocol.aio_server import AioHyperQServer, AioServerThread
from repro.protocol.client import TdClient
from repro.protocol.server import HyperQServer, ServerThread
from repro.transform.capabilities import PROFILES, CapabilityProfile

__version__ = "1.0.0"

__all__ = [
    "Database",
    "HyperQ",
    "HyperQSession",
    "HQResult",
    "TranslationResult",
    "FeatureTracker",
    "RequestTiming",
    "TimingLog",
    "TdClient",
    "HyperQServer",
    "ServerThread",
    "AioHyperQServer",
    "AioServerThread",
    "Gateway",
    "GatewayConfig",
    "CapabilityProfile",
    "PROFILES",
    "WorkloadConfig",
    "WorkloadManager",
    "TenancyConfig",
    "TenantRegistry",
    "virtualize",
]


def virtualize(target: str = "hyperion",
               tracker: FeatureTracker | None = None,
               cache_size: int = 32 * 1024 * 1024) -> HyperQ:
    """Create a Hyper-Q engine virtualizing Teradata onto *target*.

    ``target`` names a capability profile from
    :data:`repro.transform.capabilities.PROFILES`; ``hyperion`` is the
    bundled executing in-memory cloud data warehouse. ``cache_size`` caps
    the shared translation cache in bytes (0 disables it).
    """
    return HyperQ(target=target, tracker=tracker, cache_size=cache_size)
