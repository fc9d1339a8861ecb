"""Finite-dimensional dynamical systems over matrix algebras.

Classification of ergodicity and mixing through GNS spectra, joinings on
the tangent space of the product state with rank verdicts and certified
optima, and an exact combinatorial engine for group-algebra dual systems.
"""

__version__ = "0.1.0"
