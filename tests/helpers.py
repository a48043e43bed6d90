"""Builders the tests share and the program does not use: the default and
all-zero threshold schedules, and an all-zero two-layer MLP."""

import numpy as np

from docprune.content_filter import ThresholdSchedule
from docprune.tensor import Mlp2


def default_schedule() -> ThresholdSchedule:
    return ThresholdSchedule(eps_c=(0.25, 0.25, 0.5, 0.5), eps_i=0.5)


def zero_schedule(n_stages: int = 4) -> ThresholdSchedule:
    return ThresholdSchedule(eps_c=(0.0,) * n_stages, eps_i=0.0)


def mlp2_zeros(in_dim: int, hidden: int, out_dim: int) -> Mlp2:
    return Mlp2(np.zeros((in_dim, hidden)), np.zeros(hidden),
                np.zeros((hidden, out_dim)), np.zeros(out_dim))
