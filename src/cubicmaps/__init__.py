"""Exact topological expansion of the cubic random matrix model.

Subpackage map:

* ``series``, ``numbers`` -- exact arithmetic substrate
* ``precision`` -- ``BigFloat`` (a float with the dps it was computed at) and mpmath conversions
* ``equilibrium`` -- one-cut leading slice, endpoint system and phi-function checks
* ``hierarchy`` -- string-equation hierarchy for the recurrence coefficients
* ``toda`` -- Toda-flow integration to free-energy series and map counts
* ``critical`` -- exact critical amplitudes, count amplitudes K_2g, Painleve I
* ``wick`` -- exact pairing census oracle, a recursion on untouched vertices and boundary cycle type
* ``finite_n`` -- contour moments, orthogonal recurrences, finite-N validation
* ``serialize`` -- tagged, deterministic JSON/CSV encoding
* ``acceptance`` -- the twelve release checks behind ``cubicmaps reproduce``
* ``cli`` -- command-line entry points
"""

from __future__ import annotations
