"""The Weyl group listed as reduced words and acting on weights, the
positive coroots and 2*rho, Weyl's dimension formula, and the expansion of
highest-weight labels onto the torus by Demazure's formula, kept on the
test side: the element with reduced word (i_1, ..., i_k) is
s_{i_1} ... s_{i_k}, so its simple reflections apply last letter first.
The expansion is the inverse of the read-back off the Weyl denominator
(`ktheta.labels_off_torus`)."""

from functools import reduce

from nilchar.charring import irreducible_character
from nilchar.rootdata import Weight, wadd, wdot, wscale, wsub


def act(datum, word, weight):
    """w(weight) for the Weyl element w with reduced word `word`."""
    for i in reversed(word):
        weight = datum.reflect(i, weight)
    return weight


def sign(word) -> int:
    return -1 if len(word) % 2 else 1


def weyl_words(datum) -> tuple[tuple[int, ...], ...]:
    """One reduced word per Weyl group element, the least of its element's
    reduced words, in (length, word) order; the last is w0.

    A breadth-first walk on the orbit of rho in Dynkin labels: W acts simply
    transitively on the chambers, so the labels mu of w^-1(rho) identify w.
    Appending i to the word of w takes mu to mu - mu_i C e_i (column i of the
    Cartan matrix holds the labels of alpha_i), and is longer exactly when
    mu_i > 0. Each level is expanded in word order, letters ascending, so an
    element is first reached by its least word.
    """
    columns = tuple(zip(*datum.cartan_matrix))
    start = (1,) * datum.nsimple
    seen = {start}
    words: list[tuple[int, ...]] = [()]
    frontier = [((), start)]
    while frontier:
        nxt = []
        for word, mu in frontier:
            for i, column in enumerate(columns):
                if mu[i] > 0:
                    nu = tuple(m - mu[i] * c for m, c in zip(mu, column))
                    if nu not in seen:
                        seen.add(nu)
                        words.append(word + (i,))
                        nxt.append((words[-1], nu))
        frontier = nxt
    return tuple(words)


def weyl_orbit(datum, weight: Weight) -> set[Weight]:
    orbit = {weight}
    frontier = [weight]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(datum.nsimple):
                im = datum.reflect(i, w)
                if im not in orbit:
                    orbit.add(im)
                    nxt.append(im)
        frontier = nxt
    return orbit


def positive_coroots(datum) -> dict[Weight, Weight]:
    """Each positive root with its coroot. Both are closed together from
    the simple ones: for a positive root beta other than alpha_i, s_i(beta)
    is a positive root, and its coroot is s_i applied to beta's coroot,
    beta^vee - <alpha_i, beta^vee> alpha_i^vee."""
    pairs = dict(zip(datum.simple_roots, datum.simple_coroots))
    frontier = list(pairs)
    while frontier:
        nxt = []
        for beta in frontier:
            cov = pairs[beta]
            for i, (alpha, alpha_cov) in enumerate(zip(datum.simple_roots, datum.simple_coroots)):
                if beta == alpha:
                    continue
                image = datum.reflect(i, beta)
                if image not in pairs:
                    pairs[image] = wsub(cov, wscale(wdot(alpha, cov), alpha_cov))
                    nxt.append(image)
        frontier = nxt
    return pairs


def two_rho(datum) -> Weight:
    """The sum of the positive roots."""
    return reduce(wadd, datum.positive_roots, (0,) * datum.rank)


def weyl_dimension(datum, lam) -> int:
    """Dimension of the irreducible with highest weight `lam`: the product
    over positive coroots of <lam + rho, a^vee> / <rho, a^vee>."""
    if not datum.is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    num = den = 1
    rho2 = two_rho(datum)
    lam_rho2 = wadd(wscale(2, lam), rho2)
    for cov in positive_coroots(datum).values():
        num *= wdot(lam_rho2, cov)
        den *= wdot(rho2, cov)
    dim, rem = divmod(num, den)
    if rem:
        raise ValueError(f"Weyl product for {lam} is not an integer: {num}/{den}")
    return dim


def expand_labels(datum, labels: dict[Weight, int]) -> dict[Weight, int]:
    """The torus character sum_lam c_lam ch V_lam of a label combination,
    each irreducible by `irreducible_character`."""
    out: dict[Weight, int] = {}
    for lam, c in labels.items():
        for w, m in irreducible_character(datum, lam).items():
            out[w] = out.get(w, 0) + c * m
    return {w: c for w, c in out.items() if c}
