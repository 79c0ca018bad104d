"""2D frequent-closed-pattern substrate.

Two interchangeable miners (both return patterns closed on both axes):

* :class:`DMiner` — the paper's RSM substrate; cutter-based splitting.
* :class:`Carpenter` — CARPENTER-style row enumeration.

``oracle_mine_2d`` is the brute-force reference both are tested
against.  ``get_fcp_miner(name)`` resolves a miner by its registry name.
"""

from .base import FCPMiner, Pattern2D, check_pattern
from .carpenter import Carpenter, carpenter_mine
from .dminer import DMiner, dminer_mine
from .matrix import BinaryMatrix
from .oracle import oracle_mine_2d

__all__ = [
    "FCPMiner",
    "Pattern2D",
    "check_pattern",
    "BinaryMatrix",
    "DMiner",
    "dminer_mine",
    "Carpenter",
    "carpenter_mine",
    "oracle_mine_2d",
    "FCP_MINERS",
    "get_fcp_miner",
]

#: Registry of 2D miners by name.
FCP_MINERS = {miner.name: miner for miner in (DMiner, Carpenter)}


def get_fcp_miner(name: str) -> FCPMiner:
    """Instantiate a 2D FCP miner from its registry name."""
    try:
        return FCP_MINERS[name]()
    except KeyError:
        raise ValueError(
            f"unknown 2D miner {name!r}; choose from {sorted(FCP_MINERS)}"
        ) from None
