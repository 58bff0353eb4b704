import numpy as np
import pytest

from maskdispatch import lp
from maskdispatch.casefile import load_case
from importlib.resources import files


@pytest.fixture(scope="session", autouse=True)
def optimality_certificates():
    """Every optimal solve in the whole run must certify duality and
    complementary slackness within tolerance (scaled by 1 + |objective|).

    Both backends build each optimal solution in ``lp._finish``; wrapping
    it collects ``(scaled gap, scaled CS)`` per solve into the yielded list.
    """
    certificates = []
    finish = lp._finish

    def recording(*args, **kwargs):
        sol = finish(*args, **kwargs)
        scale = 1.0 + abs(sol.objective)
        certificates.append((sol.gap / scale, sol.max_cs_violation / scale))
        return sol

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "_finish", recording)
        yield certificates
    if certificates:
        gap, cs = np.max(certificates, axis=0)
        assert gap <= 1e-6, \
            f"worst duality gap {gap:.3e} over {len(certificates)} solves"
        assert cs <= 1e-6, f"worst complementary slackness {cs:.3e}"


@pytest.fixture(scope="session")
def threebus():
    path = files("maskdispatch").joinpath("cases/threebus.case")
    return load_case(str(path))


@pytest.fixture(scope="session")
def threebus_golden():
    return {
        "objective": 1330.0,
        "gen_totals": {"GENCO1": 110.0, "GENCO2": 80.0},
        "load_totals": {"LSE1": 190.0},
        "gen_segments": {"GENCO1": np.array([90.0, 20.0, 0.0]),
                         "GENCO2": np.array([80.0, 0.0, 0.0])},
        "load_segments": {"LSE1": np.array([150.0, 40.0, 0.0])},
        "angles": np.array([[0.0, -1.0, -10.0]]),
        "flows": np.array([[10.0, 90.0, 100.0]]),
        "lmp": np.array([[15.0, 15.5, 16.0]]),
    }
