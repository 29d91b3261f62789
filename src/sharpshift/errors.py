"""Error taxonomy shared by all subsystems, the one range check and the one OS-error guard."""

import contextlib
import math
import numbers

#: Largest count the program allocates or loops over: the values of one array
#: (a synthetic split's images, an encoder's parameters) and the epochs of a run
#: or a probe. 2**28 float64 values take 2 GiB.
SIZE_CAP = 2**28


def check_range(error, name, value, lo, hi=math.inf, lo_open=False, hi_open=True, integer=False):
    """``value`` if it lies between ``lo`` and ``hi``, else ``error`` naming ``name``.

    Each end is closed unless ``lo_open``/``hi_open`` says otherwise. NaN and
    +-inf never pass, -0.0 comes back as 0.0, and a bool or a str is no number.
    With ``integer``, the check of every count and seed, a non-integral value fails
    too and the value comes back as an int.
    """
    kind = numbers.Integral if integer else object
    try:
        inside = ((lo < value if lo_open else lo <= value)
                  and (value < hi if hi_open else value <= hi) and abs(value) != math.inf)
        number = isinstance(value, kind) and not isinstance(value, bool)
    except TypeError:  # a str or None compares with no number
        inside, number = True, False
    if not inside:
        bounds = f"{'[('[lo_open]}{lo}, {hi}{'])'[hi_open]}"
        raise error(f"{name} must lie in {bounds}, got {value}")
    if not number:
        raise error(f"{name} must be {'an integer' if integer else 'a number'}, got {value!r}")
    return int(value) if integer else value + 0  # -0.0 + 0 is 0.0, and an int stays an int


@contextlib.contextmanager
def os_errors(error, path):
    """Raise an ``OSError`` from inside the block as ``error``, "<path>: <strerror>"."""
    try:
        yield
    except OSError as exc:
        raise error(f"{path}: {exc.strerror or exc}") from exc


class SharpshiftError(Exception):
    """Base class for every error raised by this package."""


class AugmentationError(SharpshiftError):
    """Invalid input to an augmentation primitive (shapes, batch size, alpha)."""


class ContractViolationError(SharpshiftError):
    """A loss-function precondition was violated (non-unit features, bad batch)."""


class OptimizerError(SharpshiftError):
    """Non-finite loss or gradient inside an optimizer step."""

    def __init__(self, message, step=None):
        if step is not None:
            message = f"{message} (step {step})"
        super().__init__(message)
        self.step = step


class ModelError(SharpshiftError):
    """Encoder shape mismatch, bad parameter vector, or checkpoint corruption."""


class MetricError(SharpshiftError):
    """Shift-gap estimation failed (no data, or a request too large to hold)."""


class LabError(SharpshiftError):
    """Bound-lab enumeration guard exceeded or invalid world."""


class EvaluationError(SharpshiftError):
    """Linear-probe / attack evaluation failed its preconditions."""


class IngestionError(SharpshiftError):
    """Dataset file is malformed; carries the byte offset when known."""

    def __init__(self, message, byte_offset=None):
        if byte_offset is not None:
            message = f"{message} (byte offset {byte_offset})"
        super().__init__(message)
        self.byte_offset = byte_offset


class PipelineError(SharpshiftError):
    """Training-loop failure; carries the last good checkpoint if one exists."""

    def __init__(self, message, last_checkpoint=None):
        if last_checkpoint is not None:
            message = f"{message} (last checkpoint {last_checkpoint})"
        super().__init__(message)
        self.last_checkpoint = last_checkpoint
