"""Exception types shared across the package.

The CLI maps these onto exit codes: usage problems exit 1, data and
contract problems exit 2, partial bench failures exit 3.
"""


class ContractViolation(ValueError):
    """An operation was called outside its documented contract."""


class DegenerateRangeError(ContractViolation):
    """Quantization params requested for an all-zero / empty value range."""


class CalibrationCoverageError(ContractViolation):
    """Calibration ranges do not cover every activation slot of the model."""

    def __init__(self, missing: list[str]):
        self.missing = sorted(missing)
        super().__init__(
            "calibration ranges missing activation slots: " + ", ".join(self.missing)
        )


class ManifestError(ValueError):
    """A dataset manifest failed validation; message carries the line number."""

    def __init__(self, line_no: int | None, message: str):
        self.line_no = line_no
        if line_no is None:
            super().__init__(message)
        else:
            super().__init__(f"manifest line {line_no}: {message}")


class ContainerError(ValueError):
    """A weights container is malformed or has an unknown format version."""
