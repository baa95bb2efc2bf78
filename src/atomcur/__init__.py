"""Computational engine for higher covariant derivatives and the fiberwise
algebra of point-supported de Rham currents on a chart.

Given a chart whose metric or connection is specified by closed-form
expressions, the package computes higher-order Christoffel symbols, higher
covariant derivatives of scalar/tensor/form fields, the fiberwise quotient
onto point-supported currents with its PBW and kernel bases, the coproduct
dual to wedge product, the distinguished operator calculus (interior
product, covariant differentiation, their adjoints, Hodge dualization,
boundary), and verifies the defining identities on desk-scale manifolds.
"""

from .jets import FLOAT, RATIONAL, Jet, JetSpace
from .expr import parse, to_string, eval_jet, evaluate, monomial_form
from .connection import ChartConnection, ChartDomainError, curvature, dual_chart

__version__ = "0.1.0"

# Jet products are pure Python; benchmark records name their backend from this.
BACKEND_COMPILED = False
