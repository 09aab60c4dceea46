"""Dataset substrate: synthetic CIFAR-10-like data with per-client label skew.

The paper trains on CIFAR-10; this offline reproduction generates a seeded
synthetic 10-class dataset whose samples are flat 3072-vectors (a 32x32x3
image's worth of float pixels) with integer labels, and tunable difficulty (see
:mod:`repro.data.synthetic`'s docstring for the substitution rationale).
Each client's local split is a :meth:`SyntheticImageDataset.sample` drawn
under its :func:`~repro.data.synthetic.client_class_probs`.
"""

from repro.data.synthetic import SyntheticImageDataset, SyntheticSpec
from repro.data.dataset import Dataset

__all__ = [
    "SyntheticImageDataset",
    "SyntheticSpec",
    "Dataset",
]
