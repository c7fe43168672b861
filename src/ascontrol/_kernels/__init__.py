"""The exhaustive path-reduction kernel (pure numpy, see `_py`)."""

from ._py import path_logsumexp


def backend_name():
    """Name of the path-reduction backend; numpy is the only one."""
    return "python"
