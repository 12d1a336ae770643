"""Exception types and the fidelity range check shared across the package.

Plain ``ValueError`` is used for ordinary argument validation; the classes
here mark failure modes callers may want to handle separately.
"""


class StructureError(ValueError):
    """Incompatible shapes between composite objects (mismatched chains,
    mismatched qubit counts, bad bond dimensions)."""


class CanonicalFormError(ValueError):
    """Operation requires a left-orthonormal (canonical) matrix-product
    state; the message gives the measured orthonormality defect and
    ``mps.CANONICAL_TOL``."""


class NumericalFailure(RuntimeError):
    """An underlying iterative numerical routine (SVD/eigensolver) did not
    converge."""


class ResourceLimitError(RuntimeError):
    """Requested cloner exceeds ``cloning.MAX_CLONES``, the one size limit,
    checked where the cloner chain is built."""


def check_fidelity(value: float) -> None:
    """Reject a reported fidelity outside ``[0, 1]`` beyond rounding (1e-12)."""
    if not -1e-12 <= value <= 1.0 + 1e-12:
        raise ValueError(f"fidelity out of range: {value!r}")
