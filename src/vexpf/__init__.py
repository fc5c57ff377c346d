"""Exact Schubert calculus for types A, B, C, D: double Schubert
polynomials by divided differences, multi-Schur Pfaffian and determinant
formulas for vexillary (signed) permutations, and machine checks of the
supporting operator identities."""

__version__ = "0.1.0"
