import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


# Golden scenario constants (500 x 650 m area, radius cap 100 m).
#
# The scenario's coverage radius is 80 m: large enough that the recovered
# 96.225 m layout is exactly fully covered (corner circles bound full
# coverage at about 1.2113 * r_c, and 96.225/80 = 1.203). No instant coverage
# is claimed at either radius: the initial 70 m deployment (70 <= 80) covers
# the interior at every instant but leaks at the rectangle's boundary. The
# 100 m cap is applied as an explicit override.
AREA_X = 500.0
AREA_Y = 650.0
R_L_MAX = 100.0
R_C = 80.0
R_NEW_EXPECTED = AREA_X / (3.0 * math.sqrt(3.0))  # 96.2250...


@pytest.fixture
def table2():
    return {
        "area_x": AREA_X,
        "area_y": AREA_Y,
        "r_l_max": R_L_MAX,
        "r_c": R_C,
        "r_init": 70.0,
        "speed": 15.0,
        "max_bank": 0.5,
        "r_new": R_NEW_EXPECTED,
    }
