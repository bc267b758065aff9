"""Exception taxonomy shared across the package.

The CLI maps these onto process exit codes (see cli.py); library code raises
them directly so programmatic callers can distinguish failure classes.
"""


class DimensionError(ValueError):
    """Grid/kernel shape contract violated (empty grid, even kernel, mismatch)."""


class NumericIntegrityError(ValueError):
    """A numeric sanity check failed (e.g. imaginary residue after an inverse FFT)."""


class ConfigError(ValueError):
    """Invalid or unknown configuration value."""


class DivergenceError(RuntimeError):
    """Training loss exploded past the divergence guard."""

    def __init__(self, iteration: int, loss: float, what: str = "combined loss"):
        self.iteration = iteration
        self.loss = loss
        super().__init__(f"training diverged at iteration {iteration}: {what} {loss:.6g}")
