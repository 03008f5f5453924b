"""The settings of a Monte Carlo run, without numpy.

`ProtocolConfig` fixes a run, `ENGINE_NAMES` are the decoder engines it can
name, and the two errors are how a decoder gives up on a run. The command
line reads its simulate flags' defaults and choices here and catches these
errors, so building its parser and running `build` or `verify` load none of
the simulator (dccsim.protocol, dccsim.decoder, dccsim.noise).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

ENGINE_NAMES = ("exact", "sparse")


class DegeneratePosteriorError(RuntimeError):
    """Every coset got zero weight (possible only with exact syndromes)."""


class NumericError(RuntimeError):
    """An update produced weights below the negativity tolerance."""


@dataclass(frozen=True)
class ProtocolConfig:
    p: float
    trials: int
    max_gates: int = 100_000
    decoder: str = "sparse"        # "exact" | "sparse"
    eps: float = 1e-6
    seed: int = 0
    threads: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.max_gates < 1:
            raise ValueError("max_gates must be at least 1")
        if not 0.0 <= self.eps <= 1.0:
            raise ValueError("eps must lie in [0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be at least 0")
        if self.decoder not in ENGINE_NAMES:
            raise ValueError(f"decoder must be one of {', '.join(map(repr, ENGINE_NAMES))}")

    def to_json(self) -> dict:
        return asdict(self)

    def hash(self) -> str:
        """Hash of the settings that fix the results; the worker count does not."""
        import hashlib
        import json

        fields = self.to_json()
        del fields["threads"]
        text = json.dumps(fields, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:12]
