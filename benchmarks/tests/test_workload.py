import math

import pytest

from workload import REFERENCE_NOMINAL_S, HostSpeed


def test_scale_is_nominal_over_the_median_probe():
    speed = HostSpeed(every=math.inf)
    speed.probes = [REFERENCE_NOMINAL_S * k for k in (1.0, 1.5, 4.0)]
    assert speed.scale() == pytest.approx(1 / 1.5)


def test_probes_keep_their_interval_unless_forced():
    speed = HostSpeed(every=math.inf)
    assert speed.probe() == 0.0
    assert speed.probes == []
    speed.probe(force=True)
    assert len(speed.probes) == 1
    eager = HostSpeed(every=0.0)
    eager.probe()
    eager.probe()
    assert len(eager.probes) == 2


def test_clock_leaves_out_the_time_spent_probing():
    speed = HostSpeed(every=0.0)
    before = speed.clock()
    spent = speed.probe()
    assert spent == speed.probes[0] > 0
    assert speed.clock() - before < spent
