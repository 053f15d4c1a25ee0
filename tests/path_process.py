"""Lemma 1's per-path oracle: the attachment process run over the weights
of one path's labels only, with no history enumerated, so it reaches past
the exact cap of the prefix walk in `scale_free._presence_table`. Test
modules import it; pytest does not collect it.
"""

from typing import Sequence


def weight_total(n: int) -> int:
    """D_n = prod_{t=2..n} (2t - 3), the product of the total attachment
    weights up to label n."""
    total = 1
    for t in range(2, n + 1):
        total *= 2 * t - 3
    return total


def path_presence(n: int, path: Sequence[int]) -> int:
    """The probability that the preferential-attachment tree on labels
    1..n has `path` as a path, as an integer numerator over D_n.

    Label t attaches to label p with probability w_p / (2t - 3), where w_p
    is p's degree, plus one for label 1. In a recursive tree labels fall
    along a path to its minimum c and rise after it, so the path is present
    exactly when every other path label attaches to its neighbour toward c;
    c attaches anywhere. A label off the path matters only through the
    weight it adds to the path label it attaches to, so the state is the
    tuple of the weights of the path labels that have arrived, in label
    order, and each state keeps its numerator. The path is settled once its
    largest label arrives; every later label only adds weight, and their
    choices together weigh D_n / D_b. A sequence that is no path of any
    recursive tree has numerator 0.
    """
    path = tuple(path)
    if len(set(path)) != len(path) or not all(1 <= s <= n for s in path):
        raise ValueError(f"not a simple path on labels 1..{n}: {path}")
    c = path.index(min(path))
    toward = {s: path[j + 1] for j, s in enumerate(path[:c])}
    toward.update((path[j], path[j - 1]) for j in range(c + 1, len(path)))
    slot = {s: i for i, s in enumerate(sorted(path))}
    states = {(): 1}
    settled = 1  # D_t, the product of the total weights so far
    for t in range(1, max(path) + 1):
        total = max(2 * t - 3, 1)  # label 1 arrives alone
        settled *= total
        grown: dict[tuple[int, ...], int] = {}
        if t == path[c]:
            for w, num in states.items():
                grown[w + (1,)] = num * total
        elif t in toward:
            if toward[t] > t:
                return 0
            q = slot[toward[t]]
            for w, num in states.items():
                grown[(*w[:q], w[q] + 1, *w[q + 1:], 1)] = num * w[q]
        else:
            for w, num in states.items():
                # With chance w_p / total the label raises path label p's
                # weight; with the rest it raises none.
                rest = total - sum(w)
                if rest:
                    grown[w] = grown.get(w, 0) + num * rest
                for q, wq in enumerate(w):
                    key = (*w[:q], wq + 1, *w[q + 1:])
                    grown[key] = grown.get(key, 0) + num * wq
        states = grown
    return sum(states.values()) * (weight_total(n) // settled)
