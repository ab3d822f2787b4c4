"""The package's public names are its modules' `__all__` lists, declared once."""

import eulerchar
from eulerchar import estimator, graph, orbits, planner, spectrum, testfn

MODULES = (estimator, graph, orbits, planner, spectrum, testfn)
ORACLES = {
    spectrum: ("secular_matrix",),
    orbits: ("enumerate_orbits", "scattering_amplitude", "PeriodicOrbit"),
}


def test_package_all_is_the_modules_all_lists():
    assert eulerchar.__all__ == [name for m in MODULES for name in m.__all__]
    assert len(set(eulerchar.__all__)) == len(eulerchar.__all__)


def test_every_exported_name_is_its_modules_object():
    for m in MODULES:
        for name in m.__all__:
            assert getattr(eulerchar, name) is getattr(m, name), (m.__name__, name)


def test_test_oracles_stay_in_their_modules_only():
    for m, names in ORACLES.items():
        for name in names:
            assert hasattr(m, name) and name not in m.__all__, name
            assert not hasattr(eulerchar, name), name
