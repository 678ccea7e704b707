"""Null Frenet frames, curvature extraction, helix synthesis and submanifold
diagnostics on low-dimensional semi-Riemannian coordinate charts."""

__version__ = "0.1.0"
