"""Dual disentangled variational autoencoders for implicit-feedback recommendation.

Import the submodules by name. The package itself loads nothing, so that
``dualvae.cli`` can pin BLAS to one thread before numpy loads.
"""

__version__ = "0.1.0"
