"""Migration protocols: the distributed algorithms under study.

See :mod:`repro.core.protocols.base` for the protocol contract and
``DESIGN.md`` for the information model of each protocol.
"""

from .base import Protocol, StepOutcome
from .bestresponse import BestResponseProtocol, SweepBestResponse
from .multiprobe import MultiProbeProtocol
from .naive import BlindRandomProtocol, NaiveGreedyProtocol
from .neighborhood import NeighborhoodSamplingProtocol, ResourceGraph
from .permit import PermitProtocol
from .rates import (
    AdaptiveBackoffRate,
    ConstantRate,
    MigrationRateRule,
    SlackProportionalRate,
)
from .sampling import QoSSamplingProtocol

__all__ = [
    "Protocol",
    "StepOutcome",
    "QoSSamplingProtocol",
    "MultiProbeProtocol",
    "PermitProtocol",
    "NeighborhoodSamplingProtocol",
    "ResourceGraph",
    "BestResponseProtocol",
    "SweepBestResponse",
    "NaiveGreedyProtocol",
    "BlindRandomProtocol",
    "MigrationRateRule",
    "ConstantRate",
    "SlackProportionalRate",
    "AdaptiveBackoffRate",
]
