"""Straight-line decode, gold score and gradient cell counts, the bitwise
oracles for ``crf._viterbi_path``, ``crf.sequence_score`` and
``crf._cell_counts``.

Each reads one element at a time where ``crf`` gathers: the Viterbi step
takes the winners with a per-row fancy index, the score adds one numpy
scalar per term, and the cell counts come from ``np.unique`` and
``np.bincount``.  They share no code with ``crf``, and fix the same results:
ties go to the lowest label index, and a sequence's score is the left-to-right
sum of its start transition, emission 0, then each position's transition and
emission.

``brute_force_log_partition``, the oracle for ``crf.log_partition``, sums
over ``crf.enumerate_sequence_scores``, the enumeration ``crf.brute_force_best``
reads too.
"""

import numpy as np

from seqlab import crf


def viterbi_path(emission, transition):
    """The best labels of an ``(n, L)`` emission and ``(L + 1, L)`` transition
    (start row last), and their score."""
    n, L = emission.shape
    into, labels = np.ascontiguousarray(transition[:L].T), np.arange(L)
    scores = np.empty((L, L))
    alpha = transition[L] + emission[0]
    back = np.zeros((n, L), dtype=np.int64)
    for i in range(1, n):
        np.add(into, alpha, scores)
        best_prev = np.argmax(scores, axis=1, out=back[i])
        alpha = scores[labels, best_prev] + emission[i]
    labels = np.zeros(n, dtype=np.int64)
    labels[n - 1] = int(np.argmax(alpha))
    for i in range(n - 1, 0, -1):
        labels[i - 1] = back[i, labels[i]]
    return labels, float(alpha[labels[-1]])


def sequence_score(emission, transition, labels):
    """The score of ``labels``, one term at a time."""
    n, L = emission.shape
    score = transition[L, labels[0]] + emission[0, labels[0]]
    for i in range(1, n):
        score = score + transition[labels[i - 1], labels[i]]
        score = score + emission[i, labels[i]]
    return float(score)


def cell_counts(plus, minus):
    """Distinct cells, ascending, with +1 per ``plus`` and -1 per ``minus``
    entry summed; cancelled cells are dropped.  On empty input the counts
    come back int64, as ``np.bincount`` returns them."""
    cells, inverse = np.unique(np.concatenate([plus, minus]), return_inverse=True)
    counts = np.bincount(inverse, np.repeat([1.0, -1.0], [len(plus), len(minus)]), len(cells))
    return cells[counts != 0.0], counts[counts != 0.0]


def brute_force_log_partition(lattice):
    """Log of the summed exponentiated scores of every label sequence."""
    _, scores = crf.enumerate_sequence_scores(lattice)
    shift = scores.max()
    return float(shift + np.log(np.exp(scores - shift).sum()))
