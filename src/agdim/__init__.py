"""agdim: exact integer arithmetic for maximal compact subvarieties of the
moduli of principally polarized abelian varieties.

The public surface is the modules; the package itself holds only
``__version__``, so importing it loads no module and no numpy:

* :mod:`agdim.arith` -- the genus bound ``dmax``, half-product, pair order;
* :mod:`agdim.satake` -- the classification catalog;
* :mod:`agdim.pairs` -- pair families, their domination checks, superadditive DP;
* :mod:`agdim.efficiency` -- multiset product/sum classification;
* :mod:`agdim.moduli` -- the top-level dimension recursions and tables;
* :mod:`agdim.verify` -- exhaustive claim verifiers (also via the CLI);
* :mod:`agdim.kernels` -- numpy int64 bulk kernels behind the verifiers.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
