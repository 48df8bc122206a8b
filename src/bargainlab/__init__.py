"""Bilateral exchange under motivation and power imbalances.

Simulation engine covering single negotiations, supply chains, money-free
exchanges, trust-based power chains, and society-scale wealth dynamics,
plus a scenario-file CLI.  Submodules are imported on use, so that only
society runs load numpy.
"""

__version__ = "0.1.0"
