"""Hypothesis example budgets.

Tier-1 runs Hypothesis's default budget.  ``--hypothesis-profile=ci`` raises
``max_examples`` for every property test that does not fix its own, which
covers the exact-layer tests of ``test_exactnum.py``: the algebraic
properties and the differential comparisons against the
Fraction-per-coefficient form.
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=500)
