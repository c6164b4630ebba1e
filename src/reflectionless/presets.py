"""Built-in example measures so the standard runs need no hand-written JSON."""

from __future__ import annotations

from .errors import BadParameter
from .herglotz import Setting
from .measure import Measure

# A soliton family member is admissible exactly for R > 1 + 1/epsilon (the
# boundary function has its root at -(1 + 1/epsilon)); the preset bumps R by
# a hair so the strict scan passes while staying at the spectral edge.
SOLITON_R_BUMP = 1e-6


def free():
    return Measure.zero(), Setting.jacobi(2.0)


def delta1():
    return Measure.point(1.0, 1.0), Setting.jacobi(4.0)


def soliton(epsilon):
    if not 0.0 < epsilon < 1.0:
        raise BadParameter("soliton needs 0 < epsilon < 1")
    R = (1.0 + 1.0 / epsilon) * (1.0 + SOLITON_R_BUMP)
    return Measure.point(1.0, 1.0 - epsilon), Setting.jacobi(R)


def delta0(mass=1.0):
    if not mass > 0.0:
        raise BadParameter("delta0 needs a positive mass")
    return Measure.point(0.0, mass), Setting.schrodinger(2.0)


def get(name, epsilon=None, mass=None):
    if name == "free":
        return free()
    if name == "delta1":
        return delta1()
    if name == "soliton":
        if epsilon is None:
            raise BadParameter("soliton preset needs epsilon")
        return soliton(epsilon)
    if name == "delta0":
        return delta0(1.0 if mass is None else mass)
    raise BadParameter(f"unknown preset {name!r}")
