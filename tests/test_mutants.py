"""Known faults as mutants: each is one edit of one function, and a named test must fail under it.

A mutant is the function's own source with one text replaced, a text that
must occur in it exactly once, so a rewrite that drops the text fails here
and asks for the mutant to be restated rather than silently testing
nothing.  The mutated function stands in for the original in every loaded
module that holds it (the modules that import it by name, the test modules
included), as a real fault would.  The named test then runs in-process and
must fail on an assertion: a comparison catches the fault, not a crash that
a harmless change could also cause.
"""

import __future__
import inspect
import sys
import textwrap

import pytest
import test_relideal
import test_ringlab

from stablerings import relideal

# (function, text, mutated text, the test that must fail under the mutant)
MUTANTS = (
    (
        relideal._generator_mask,
        "return m & ~covered",
        "return (g := m & ~covered) & ~(1 << g.bit_length() - 1) | 1",  # drops the largest of two or more
        test_relideal.test_mu_equals_nakayama_count,
    ),
    (relideal._power_chain, "range(k - 1)", "range(k - 2)", test_ringlab.test_hilbert_matches_naive),
    (relideal._census_counts, "<< a & h]", "<< a]", test_relideal.test_census_matches_oracle_walk),
    (
        relideal._blowup_gap_mask,
        "for s in S.minimal_generators:",
        "for s in S.minimal_generators[:1]:",
        test_relideal.test_blowup_gap_mask_is_end_semigroup_of_max_ideal,
    ),
)


def _mutate(fn, old: str, new: str):
    """The function compiled from its source with ``old`` replaced by ``new``, in a copy of its globals."""
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1, f"{fn.__name__} must hold {old!r} exactly once"
    code = compile(
        source.replace(old, new),
        inspect.getsourcefile(fn),
        "exec",
        flags=__future__.annotations.compiler_flag,
        dont_inherit=True,
    )
    namespace = dict(fn.__globals__)
    exec(code, namespace)
    return namespace[fn.__name__]


@pytest.mark.parametrize("fn, old, new, check", MUTANTS, ids=[m[0].__name__ for m in MUTANTS])
def test_mutant_is_killed(monkeypatch, fn, old, new, check):
    mutant = _mutate(fn, old, new)
    for module in list(sys.modules.values()):
        if getattr(module, "__dict__", {}).get(fn.__name__) is fn:
            monkeypatch.setattr(module, fn.__name__, mutant)
    with pytest.raises(AssertionError):
        check()
