"""A ledger of work done: counted calls on fixed small inputs, each under a pinned bound.

A count of calls depends on the input alone, not on the machine, so it
shows a change in work that a wall clock on a shared box cannot resolve.
Each counted function is wrapped where the program looks it up (see
``test_mutants.stand_in``); a generator also counts the steps it yields.
The bounds were recorded from the code as it stands.  A change that lowers
a count lowers its bound; one that needs a higher count says why.

The census's nested ``count`` cannot be wrapped, so it is left out.
"""

import inspect
from collections import Counter

from test_mutants import stand_in

from stablerings import cli, idealization, relideal, sweep
from stablerings.idealization import IdealizationRing, TruncatedSeries
from stablerings.numsg import NumericalSemigroup


def _count(monkeypatch, *fns) -> Counter:
    """Count the calls of each function, by name, and the steps each generator yields, by name + " steps"."""
    counts = Counter()
    for fn in fns:
        name, inner = fn.__name__, getattr(fn, "__func__", fn)  # a classmethod's function

        if inspect.isgeneratorfunction(inner):
            def counted(*args, name=name, inner=inner):
                counts[name] += 1
                for step in inner(*args):
                    counts[name + " steps"] += 1
                    yield step
        else:
            def counted(*args, name=name, inner=inner):
                counts[name] += 1
                return inner(*args)

        stand_in(monkeypatch, fn, classmethod(counted) if inner is not fn else counted)
    return counts


def _outside(counts: Counter, bounds: dict) -> dict:
    """The counts above their bound, or zero: a count of zero means the work went past the wrapper."""
    return {name: (counts[name], bound) for name, bound in bounds.items() if not 0 < counts[name] <= bound}


# --- ideal-q: `idealization check --field Q --rank 3 --prec 16 --trials 160 --seed 1`

IDEAL_Q_BOUNDS = {"mul": 676, "__mul__": 677, "_eliminate": 1_070, "reduce_rows": 166}


def test_ideal_q_costs(monkeypatch):
    counts = _count(
        monkeypatch, IdealizationRing.mul, TruncatedSeries.__mul__, idealization._eliminate, idealization.reduce_rows
    )
    argv = ["idealization", "check", "--field", "Q", "--rank", "3", "--prec", "16", "--trials", "160", "--seed", "1"]
    assert cli.main([*argv, "--json", "--no-timing"]) == 0
    assert _outside(counts, IDEAL_Q_BOUNDS) == {}


# --- sweep-g12: `run_sweep(12, 1)`, in this process

SWEEP_G12_BOUNDS = {
    "_census_counts": 1_413,
    "from_gap_mask": 2_240,
    "_generator_mask": 13_475,
    "_power_chain": 9_153,
    "_power_chain steps": 26_805,
}


def test_sweep_g12_costs(monkeypatch):
    counts = _count(
        monkeypatch,
        relideal._census_counts,
        NumericalSemigroup.from_gap_mask,
        relideal._generator_mask,
        relideal._power_chain,
    )
    assert sweep.run_sweep(12, 1)["violations_total"] == 0
    assert _outside(counts, SWEEP_G12_BOUNDS) == {}


# --- the Sally pass at n_max 32: `run_sweep(10, 1, n_max=32, sally_cap=10)`, the sweep behind SALLY_N32_GOLDEN

SALLY_N32_BOUNDS = {
    "enumerate_normalized_ideals": 478,
    # one per normalized ideal (64,151), and 1,872 for the powers of M that two_generator_check reads
    "_generator_mask": 66_023,
    "_power_chain": 64_629,
    "_power_chain steps": 199_665,
}


def test_sally_n32_costs(monkeypatch):
    counts = _count(
        monkeypatch, relideal.enumerate_normalized_ideals, relideal._generator_mask, relideal._power_chain
    )
    res = sweep.run_sweep(10, 1, n_max=32, sally_cap=10)
    assert res["violations_total"] == 0 and res["checks"]["sally"]["ideals_checked"] == 64_151
    assert _outside(counts, SALLY_N32_BOUNDS) == {}
