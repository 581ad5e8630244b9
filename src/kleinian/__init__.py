"""Schottky-type Kleinian groups in the Poincare ball model.

Certified evaluation of Poincare and boundary (horospherical) series,
synthesis of truncated atomic conformal measures, atomicity classification
and limit-set diagnostics, with reproducible example constructions.
"""

__version__ = "0.1.0"

from .model import BoundaryPoint, Disc, InteriorPoint, hyperbolic_distance, poisson_kernel
from .mobius import Transform, TransformClass, classify, image_disc, pair_discs, parabolic_fixing
from .group import (DeclaredStabilizer, EndingSequenceSpec, Generator, QuotientSpec,
                    SchottkyGroup, Word, ending_sequence, enumerate_words,
                    kernel_enumerate)

__all__ = [
    "BoundaryPoint", "InteriorPoint", "Disc", "poisson_kernel", "hyperbolic_distance",
    "Transform", "TransformClass", "classify", "pair_discs", "parabolic_fixing", "image_disc",
    "SchottkyGroup", "Generator", "Word", "QuotientSpec", "DeclaredStabilizer",
    "EndingSequenceSpec", "enumerate_words", "kernel_enumerate", "ending_sequence",
    "__version__",
]
