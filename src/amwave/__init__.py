"""Verification engine for operator-valued plane waves of non-Abelian
gauge fields, with a Dirac Zitterbewegung source model and Poynting-flux
cross-checks."""

__version__ = "0.1.0"
