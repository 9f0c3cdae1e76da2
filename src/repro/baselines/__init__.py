"""Baselines: centralized allocators and the QoS-oblivious selfish dynamic."""

from .centralized import optimal_assignment
from .selfish import SelfishRebalanceProtocol

__all__ = [
    "optimal_assignment",
    "SelfishRebalanceProtocol",
]
