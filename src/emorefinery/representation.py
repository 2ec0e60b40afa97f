"""Fixed-length utterance representations from emotion profiles.

Each of the K profile dimensions is summarized by five statistics over its
N segment values: mean, population standard deviation, min, max, and range.
The feature vector concatenates them blockwise (all means, then stds, mins,
maxs, ranges) for a length of exactly 5K.
"""

import numpy as np

from .fileio import write_csv


def ep_statistics(profile: np.ndarray) -> np.ndarray:
    """The 5K statistics of a K x N profile, one column per segment."""
    mins = profile.min(axis=1)
    maxs = profile.max(axis=1)
    return np.concatenate([profile.mean(axis=1), profile.std(axis=1), mins, maxs, maxs - mins])


def representations_for(eps: np.ndarray, offsets) -> np.ndarray:
    """(n_utterances, 5K) statistics of (n_segments, K) EPs; utterance i owns
    rows offsets[i]:offsets[i + 1]."""
    return np.stack([ep_statistics(eps[a:b].T) for a, b in zip(offsets[:-1], offsets[1:])])


def write_representation_csv(path, utterance_ids, reps) -> None:
    """One row per utterance of the (n_utterances, 5K) array `reps`, sorted by id."""
    write_csv(path, ["utterance_id"] + [f"f_{i + 1}" for i in range(reps.shape[1])],
              ([uid] + row
               for uid, row in sorted(zip(utterance_ids, reps.tolist()))))
