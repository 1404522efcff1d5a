"""Known faults as mutants: each is one edit of one function, and a named test must fail under it.

A mutant is the function's own source with one text replaced, a text that
must occur in it exactly once, so a rewrite that drops the text fails here
and asks for the mutant to be restated rather than silently testing
nothing.  The mutated function reads its module's globals, as the original
does, so a test that patches a name in the module reaches the mutant too.
It stands in for the original in every loaded module that holds it (the
modules that import it by name, the test modules included), or, for a
classmethod, on its class, as a real fault would.  The named test then runs
in-process and must fail on an assertion: a comparison catches the fault,
not a crash that a harmless change could also cause.
"""

import __future__
import inspect
import sys
import textwrap
import types
from functools import partial

import pytest
import test_idealization
import test_numsg
import test_quadalg
import test_relideal
import test_ringlab
import test_sweep

from stablerings import idealization, quadalg, relideal, ringlab, sweep
from stablerings.idealization import TruncatedSeries
from stablerings.numsg import NumericalSemigroup

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
        "S.minimal_generators)",
        "S.minimal_generators[:1])",
        test_relideal.test_blowup_gap_mask_is_end_semigroup_of_max_ideal,
    ),
    (  # E(I) loses the shift by the least generator offset
        relideal._end_gap_mask,
        "for k in offsets:",
        "for k in offsets[1:]:",
        test_relideal.test_end_semigroup_matches_endomorphism_oracle,
    ),
    (
        NumericalSemigroup.from_gap_mask,
        "if gaps >> g & members:",
        "if False:",
        test_numsg.test_closure_is_checked_on_wide_windows,
    ),
    (  # children take the task root's counts instead of their parent's
        sweep._walk,
        "_census_counts(child, counts)",
        "_census_counts(child, _census_counts(root))",
        test_relideal.test_census_matches_oracle_walk,
    ),
    (  # the report's agreement leaves out the Bass verdict
        ringlab.stable_ring_report,
        "agreement=all_stable == quadratic == bass",
        "agreement=all_stable == quadratic",
        test_sweep.test_violation_messages_read_the_report,
    ),
    (
        idealization._in_module,
        "return _is_zero(row)",
        "return True",
        partial(test_idealization.test_membership_matches_contains_row_oracle, "F2"),
    ),
    (  # an entry below the pivot's valuation is eliminated as if it were not
        idealization._in_module,
        "if s[0][0] < v:",
        "if False:",
        partial(test_idealization.test_membership_matches_contains_row_oracle, "Q"),
    ),
    (  # I^2 is never reduced from the whole table, so a product outside gI goes unseen
        idealization.is_stable_ideal,
        "square = g_times_i if stable else _square(ring, products)",
        "square = g_times_i",
        test_idealization.test_mismatch_with_square_is_not_stable,
    ),
    (
        TruncatedSeries._mul_add,
        "if k >= n:",
        "if k > n:",
        partial(test_idealization.test_fused_product_matches_definition, "F3"),
    ),
    (
        TruncatedSeries.reduced,
        "for e, c in pairs if c % p]",
        "for e, c in pairs]",
        partial(test_idealization.test_fused_product_matches_definition, "F2"),
    ),
    (
        idealization._products,
        "for j in range(i, len(gens))}",
        "for j in range(i, len(gens)) if (i, j) != (0, 0)}",
        partial(test_idealization.test_witness_candidates_lie_in_square, "F5"),
    ),
    (  # an algebra is built, its table validated, with no pair bound
        quadalg.algebra_from_table,
        "_check_pair_bound(field.q, dim)",
        "None",
        test_quadalg.test_size_guard,
    ),
    (  # a local quadratic algebra reads as a field without the reduced test: the dual numbers do
        quadalg.classify_handelman,
        "k == 1 and reduced and d == 2",
        "k == 1 and d == 2",
        test_quadalg.test_classification_examples,
    ),
    (
        relideal.make_ideal,
        "if len(gens) > GENERATOR_CAP:",
        "if False:",
        test_relideal.test_make_ideal_caps_its_generators,
    ),
    (  # each pool worker drops the result of its first task
        sweep._serve,
        "data = pickle.dumps(done)",
        "data = pickle.dumps(done[1:])",
        test_sweep.test_run_sweep_jobs_invariant,
    ),
    (  # a parent whose workers have all ended lets its write's BrokenPipeError escape
        sweep._pool,
        "except BrokenPipeError:",
        "except ():",
        test_sweep.test_pool_whose_workers_have_all_ended_raises,
    ),
)


def _mutate(fn, old: str, new: str):
    """The function compiled from its source with ``old`` replaced by ``new``, over its module's globals."""
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
    compiled = namespace[fn.__name__]
    inner = getattr(compiled, "__func__", compiled)  # a classmethod's function
    mutant = types.FunctionType(inner.__code__, fn.__globals__, inner.__name__, inner.__defaults__)
    return mutant if inner is compiled else classmethod(mutant)


def _patched(check):
    """Run a test that takes the monkeypatch fixture, with a fresh one undone after it."""
    with pytest.MonkeyPatch.context() as mp:
        check(monkeypatch=mp)


@pytest.mark.parametrize("fn, old, new, check", MUTANTS, ids=[m[0].__name__ for m in MUTANTS])
def test_mutant_is_killed(monkeypatch, fn, old, new, check):
    mutant = _mutate(fn, old, new)
    if inspect.ismethod(fn):  # a classmethod read off its class
        monkeypatch.setattr(fn.__self__, fn.__name__, mutant)
    for module in list(sys.modules.values()):
        if getattr(module, "__dict__", {}).get(fn.__name__) is fn:
            monkeypatch.setattr(module, fn.__name__, mutant)
    if "monkeypatch" in inspect.signature(check).parameters:
        check = partial(_patched, check)
    with pytest.raises(AssertionError):
        check()
