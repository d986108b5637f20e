import numpy as np
import pytest

from smig import config, em, forward

# The Table-1 scenario, as the config defaults define it.
TABLE1 = config.RunConfig()


@pytest.fixture(scope="session")
def paper_medium():
    return config.build_medium(TABLE1)


@pytest.fixture(scope="session")
def paper_array():
    return config.build_array(TABLE1)


@pytest.fixture(scope="session")
def paper_k(paper_medium):
    return em.wavenumber(paper_medium)


@pytest.fixture(scope="session")
def small_anomaly():
    [anomaly] = config.build_anomalies(TABLE1)
    return anomaly


@pytest.fixture(scope="session")
def extended_anomaly():
    [anomaly] = config.build_anomalies(config.apply_overrides(TABLE1, config.EXTENDED_DISC))
    return anomaly


@pytest.fixture(scope="session")
def born_fixture(paper_array, small_anomaly, paper_medium):
    return forward.born_smatrix(paper_array, [small_anomaly], paper_medium)


@pytest.fixture(scope="session")
def contaminated_fixture(born_fixture):
    return forward.contaminate_diagonal(born_fixture, 5.0, mode="random", seed=20260808)


@pytest.fixture(scope="session")
def default_grid():
    return config.build_grid(TABLE1)


@pytest.fixture(scope="session")
def coarse_grid():
    return config.build_grid(config.apply_overrides(TABLE1, ["grid.step_m=0.005"]))


@pytest.fixture(scope="session")
def r_star():
    [anomaly] = TABLE1.anomalies
    return np.array([anomaly.center_x_m, anomaly.center_y_m])
