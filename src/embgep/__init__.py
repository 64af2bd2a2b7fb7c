"""embgep: a gene-expression-programming engine plus closed-form predictors
of earthquake-induced slope displacement of earth embankments.

Names are imported from their modules (``from embgep import data`` or
``from embgep.data import synthesize``); importing the package loads none
of them."""

__version__ = "0.1.0"
