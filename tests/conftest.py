import math
import sys

import pytest
from hypothesis import settings

from whitney_lab.geometry import Parallelepiped, QuadratureSpec

INF = math.inf

# Under CI hypothesis loads its "ci" profile, which derandomizes every draw
# and so ignores --hypothesis-seed.  This profile keeps the rest of "ci" and
# lets the seed pick the draws: `--hypothesis-profile seeded --hypothesis-seed N`.
settings.register_profile("seeded", parent=settings.get_profile("ci"), derandomize=False)


def _clear_memos():
    """Empty every ``functools.lru_cache`` memo of the package."""
    for name, module in list(sys.modules.items()):
        if module is not None and name.split(".")[0] == "whitney_lab":
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


@pytest.fixture(autouse=True)
def cold_memos():
    """Every test starts on empty memos, so that none compares a value with
    one that another test cached, or cached under another monkeypatched
    constant.  The fixture's value clears them again."""
    _clear_memos()
    return _clear_memos


@pytest.fixture(scope="session")
def unit_box_1d():
    return Parallelepiped([0.0], [1.0])


@pytest.fixture(scope="session")
def unit_box_2d():
    return Parallelepiped([0.0, 0.0], [1.0, 1.0])


@pytest.fixture(scope="session")
def quad_1d():
    return QuadratureSpec()


@pytest.fixture(scope="session")
def quad_2d():
    return QuadratureSpec()


@pytest.fixture(scope="session")
def quad_2d_fast():
    return QuadratureSpec(nodes=16, sup_nodes=17)
