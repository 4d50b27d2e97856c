"""Exact multiplicity-structure discriminants for univariate polynomials."""

from .discriminant import classify, dmu
from .unipoly import generic_poly, parse_poly
