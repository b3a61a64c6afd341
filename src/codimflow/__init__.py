"""codimflow: mean curvature flow of immersed submanifolds of arbitrary
codimension in flat Euclidean space.

Structured single-chart discretizations (circle, tori, staggered sphere,
truncated interval), full second-fundamental-form machinery with numerical
residuals of the structure equations, explicit and semi-implicit flow
integration with evolution-equation verification, Gaussian-density
monotonicity and Type I/II singularity rescaling, and the Lagrangian-graph
potential flow.
"""

__version__ = "0.1.0"
