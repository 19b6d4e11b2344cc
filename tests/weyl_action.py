"""The Weyl group acting on weights, and Weyl's dimension formula, kept on
the test side: the element with reduced word (i_1, ..., i_k) is
s_{i_1} ... s_{i_k}, so its simple reflections apply last letter first."""

from nilchar.rootdata import wadd, wdot, wscale


def act(datum, word, weight):
    """w(weight) for the Weyl element w with reduced word `word`."""
    for i in reversed(word):
        weight = datum.reflect(i, weight)
    return weight


def sign(word) -> int:
    return -1 if len(word) % 2 else 1


def weyl_dimension(datum, lam) -> int:
    """Dimension of the irreducible with highest weight `lam`: the product
    over positive coroots of <lam + rho, a^vee> / <rho, a^vee>."""
    if not datum.is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    num = den = 1
    lam_rho2 = wadd(wscale(2, lam), datum.two_rho)
    for cov in datum.positive_coroots:
        num *= wdot(lam_rho2, cov)
        den *= wdot(datum.two_rho, cov)
    dim, rem = divmod(num, den)
    if rem:
        raise ValueError(f"Weyl product for {lam} is not an integer: {num}/{den}")
    return dim
