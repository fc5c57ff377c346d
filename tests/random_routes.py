"""A Schubert class descended along a random route, for well-definedness
checks against the memoized first-ascent route of `schubert`."""

from vexpf.weyl import descents, generators
from vexpf.schubert import divided_difference, schubert


def schubert_by_random_route(w, wtype: str, rng):
    """The class of w: climb by ascents that rng picks until none is left,
    then apply the divided differences of the route, from the top class
    down to w.  Only the top class comes from `schubert`."""
    n = max(w.n, 2) if wtype == "D" else w.n
    top, route = w.embed(n), []
    while True:
        down = descents(top, wtype)
        ascents = [i for i in generators(n, wtype) if i not in down]
        if not ascents:
            break
        i = rng.choice(ascents)
        route.append(i)
        top = top.right_gen(i, wtype)
    out = schubert(top, wtype, n)
    for i in reversed(route):
        out = divided_difference(i, out, wtype)
    return out
