"""The Weyl group acting on weights, kept on the test side: the element with
reduced word (i_1, ..., i_k) is s_{i_1} ... s_{i_k}, so its simple
reflections apply last letter first."""


def act(datum, word, weight):
    """w(weight) for the Weyl element w with reduced word `word`."""
    for i in reversed(word):
        weight = datum.reflect(i, weight)
    return weight


def sign(word) -> int:
    return -1 if len(word) % 2 else 1
