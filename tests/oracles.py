"""Reference implementations of the relative-ideal calculus.

These are the tuple-arithmetic routes the bitmask core in
``stablerings.relideal`` is checked against.  An ideal is given as its
ambient semigroup and a tuple of generators; membership is only ever read
through ``NumericalSemigroup.contains``, never through the core's masks.
"""

from stablerings.numsg import NumericalSemigroup


def reduce_generators(S: NumericalSemigroup, gens) -> tuple[int, ...]:
    """Drop every generator lying in another generator's translate of S."""
    out: list[int] = []
    for g in sorted(set(gens)):
        if not any(S.contains(g - h) for h in out):
            out.append(g)
    return tuple(out)


def contains(S: NumericalSemigroup, gens, z: int) -> bool:
    """Is z in the union of the translates g + S?"""
    return any(S.contains(z - g) for g in gens)


def ideal_sum(S: NumericalSemigroup, gens, other) -> tuple[int, ...]:
    """Minimal generators of the ideal generated by all pairwise sums."""
    return reduce_generators(S, {a + b for a in gens for b in other})


def endomorphism_gaps(S: NumericalSemigroup, gens) -> tuple[int, ...]:
    """The gaps of E(I) = {z : z + I inside I}, scanned on [0, conductor(S))."""
    return tuple(
        z
        for z in range(1, S.conductor)
        if not all(contains(S, gens, z + g) for g in gens)
    )


def is_stable_via_endomorphism(S: NumericalSemigroup, gens) -> bool:
    """Stability route: I equals min(I) + E(I).

    E(I) is an S-module generated by its members up to conductor(S); the test
    compares that module, translated to min(I), with I itself.
    """
    gens = reduce_generators(S, gens)
    gaps = endomorphism_gaps(S, gens)
    e_gens = [gens[0] + z for z in range(S.conductor + 1) if z not in gaps]
    return reduce_generators(S, e_gens) == gens


def is_stable_via_search(S: NumericalSemigroup, gens) -> bool:
    """Stability route: exhaustive witness search.

    Tries every member x of I up to max generator + conductor(S) as the
    translation witness for I + I = x + I; past that window every integer
    above min(I) is a member and the sums only grow.
    """
    gens = reduce_generators(S, gens)
    square = ideal_sum(S, gens, gens)
    return any(
        tuple(g + x for g in gens) == square
        for x in range(gens[0], gens[-1] + S.conductor + 1)
        if contains(S, gens, x)
    )
