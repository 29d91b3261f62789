import errno
import math
import os

import numpy as np
import pytest

from sharpshift.errors import LabError, check_range, os_errors


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_check_range_never_passes_non_finite(value):
    with pytest.raises(LabError, match=r"x must lie in \[-inf, inf\]"):
        check_range(LabError, "x", value, -math.inf, math.inf, hi_open=False)


def test_check_range_ends_and_negative_zero():
    assert check_range(LabError, "x", 0, 0) == 0
    assert not np.signbit(check_range(LabError, "x", -0.0, 0))
    assert check_range(LabError, "x", 1, 0, 1, hi_open=False) == 1
    assert check_range(LabError, "x", 2**64 - 1, 0, 2**64) == 2**64 - 1
    with pytest.raises(LabError, match=r"x must lie in \(0, 1\), got 0.0"):
        check_range(LabError, "x", 0.0, 0, 1, lo_open=True)
    with pytest.raises(LabError, match=r"x must lie in \[0, 1\), got 1.0"):
        check_range(LabError, "x", 1.0, 0, 1)


def test_os_errors_names_the_path_and_lets_other_errors_through():
    with pytest.raises(LabError, match=f"^run/x: {os.strerror(errno.ENOSPC)}$") as info:
        with os_errors(LabError, "run/x"):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), "run/x.tmp")
    assert isinstance(info.value.__cause__, OSError)
    with pytest.raises(ValueError):
        with os_errors(LabError, "run/x"):
            raise ValueError("not an OS error")
