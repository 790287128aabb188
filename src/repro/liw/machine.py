"""Machine description for the (R)LIW target.

The paper's machine (Gupta & Soffa's reconfigurable LIW, and Multiflow's
TRACE which it cites) has multiple functional units operating in
lock-step, fetching operands in parallel from ``k`` independent memory
modules.  We model:

- ``num_fus`` functional-unit slots per long instruction (each op
  occupies one slot; all ops are single-cycle in lock-step);
- one branch slot (the branch, if any, is the last operation of a block
  and rides in the final long instruction);
- at most ``mem_ports`` operand fetches per long instruction — the
  quantity the paper bounds by ``k`` ("each of which requires up to k
  operands");
- ``delta`` — the paper's Δ, the time one memory module needs to supply
  one operand.  An instruction whose operands map i-deep onto one module
  takes ``i * delta`` for its fetch phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class MachineConfig:
    """Parameters of the simulated LIW machine."""

    num_fus: int = 4
    num_modules: int = 8
    mem_ports: int | None = None  # defaults to num_modules
    delta: float = 1.0

    def __post_init__(self) -> None:
        # Every boundary (CLI, batch job, protocol) builds one of these,
        # so the field types are checked here: JSON gives 2.5, true and
        # NaN where an int or a finite number belongs.
        for name in ("num_fus", "num_modules", "mem_ports"):
            value = getattr(self, name)
            if name == "mem_ports" and value is None:
                continue  # defaults to num_modules
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(
                    f"{name} must be an int, got {type(value).__name__}"
                )
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
        if not isinstance(self.delta, (int, float)) or isinstance(
            self.delta, bool
        ):
            raise TypeError(
                f"delta must be a number, got {type(self.delta).__name__}"
            )
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError(
                f"delta must be finite and > 0, got {self.delta}"
            )

    @property
    def k(self) -> int:
        """The paper's k — number of parallel memory modules."""
        return self.num_modules

    @property
    def ports(self) -> int:
        return self.mem_ports if self.mem_ports is not None else self.num_modules


#: The configuration of the paper's experiments (§3): eight modules.
PAPER_MACHINE = MachineConfig(num_fus=4, num_modules=8)

#: The four-module variant used in Table 2's right half.
PAPER_MACHINE_K4 = MachineConfig(num_fus=4, num_modules=4)
