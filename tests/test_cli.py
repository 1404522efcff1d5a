"""CLI surface: parsing, reports, exit codes, determinism."""

import hashlib
import json
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import stablerings
from stablerings import idealization, numsg, quadalg, relideal, ringlab, sweep
from stablerings.cli import COMMANDS, COMMON, main, parse_generators
from stablerings.numsg import ENUMERATION_GENUS_CAP, GENERATOR_CAP


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_generators_forms():
    assert parse_generators("3,4,5") == [3, 4, 5]
    assert parse_generators("<3,4,5>") == [3, 4, 5]
    assert parse_generators("⟨3,4,5⟩") == [3, 4, 5]
    # it only parses: the semigroup and the ideal builders check the values
    assert parse_generators("0,-2") == [0, -2]
    for text in ("a,b", ",", "<>"):
        with pytest.raises(ValueError, match="^cannot parse generator list"):
            parse_generators(text)


def test_sg_info(capsys):
    code, out, _ = run(capsys, "sg", "info", "3,4,5")
    assert code == 0
    assert "multiplicity: 3" in out
    assert "embedding_dimension: 3" in out
    assert "frobenius: 2" in out


def test_sg_info_json(capsys):
    code, out, _ = run(capsys, "sg", "info", "4,3,7", "--json", "--no-timing")
    assert code == 0
    payload = json.loads(out)
    assert payload["input"] == "3,4"
    assert payload["result"]["genus"] == 3
    assert payload["seed"] == 0
    assert "elapsed_s" not in payload


def test_sg_tower(capsys):
    code, out, _ = run(capsys, "sg", "tower", "2,7")
    assert code == 0
    assert "multiplicity_sequence: 2,2,2,1" in out


def test_sg_ideal_stable_flag(capsys):
    code, out, _ = run(capsys, "sg", "ideal", "3,4,5", "--ideal", "0,1", "--stable")
    assert code == 0
    assert out.strip() == "stable: false"
    # --stable trims only the text report
    argv = ("sg", "ideal", "3,4,5", "--ideal", "0,1", "--json", "--no-timing")
    code, out, _ = run(capsys, *argv, "--stable")
    assert code == 0
    assert out == run(capsys, *argv)[1]
    assert json.loads(out)["result"]["endomorphism_semigroup"] == "3,4,5"


def test_sg_ideal_full(capsys):
    code, out, _ = run(capsys, "sg", "ideal", "3,4,5", "--ideal", "0,1", "--json", "--no-timing")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["mu"] == 2
    assert payload["result"]["stable"] is False
    # S union (1+S) endomorphs only to S itself: 1 and 2 both fail
    assert payload["result"]["endomorphism_semigroup"] == "3,4,5"
    # a value starting with '-' needs no '=' form
    spaced = run(capsys, "sg", "ideal", "3,4,5", "--ideal", "-1,0", "--json", "--no-timing")
    joined = run(capsys, "sg", "ideal", "3,4,5", "--ideal=-1,0", "--json", "--no-timing")
    assert spaced == joined
    assert spaced[0] == 0 and json.loads(spaced[1])["result"]["ideal"] == "-1,0"
    # a generator far past the conductor is dropped at once
    code, out, _ = run(capsys, "sg", "ideal", "3,4,5", "--ideal=0,1000000000000", "--json", "--no-timing")
    assert code == 0 and json.loads(out)["result"]["ideal"] == "0"


def test_sg_report(capsys):
    code, out, _ = run(capsys, "sg", "report", "2,5", "--json", "--no-timing")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["all_stable"] and result["quadratic"] and result["bass"]
    assert result["agreement"] and result["max_mu"] == 2


# sha256 of the stdout of `sg report G --json --no-timing` and of `sg report G
# --no-timing`, recorded while the report was a dataclass with a payload method
SG_REPORT_GOLDEN = {
    "1": (
        "88b2dfcc934e73b68ff70a3a49c43d6e2233b961b67a7c82c80e469a66fe4db3",
        "3cadf79282acf510c3766b9245a9fac2b785b2b67bb669b1ce58500b800d312a",
    ),
    "2,5": (
        "4dbd63ec7a48732c04caf55f9451cfa2c1df763d2bb6fe2f456df203e8465b4c",
        "49fe824ad995961eb92bdce321e1aea33493891267425455d900e949da58608f",
    ),
    "3,4,5": (
        "9cd99f1972f4d37eec277d0704530e04b4bfabf266bfb7da9d6d27fd9481fca8",
        "ea6df4882f0dfb06ccc2160a150909811fd67a52b1567f6b3cee9936f557333a",
    ),
    "2,41": (
        "762437d8e96be1337fc3f4e0490406e5e74fe783b69508d6da430894b2c8653b",
        "0695e3391ed1e13435d05841fce6bf77d8059843b74114e7723901d7c26eb54b",
    ),
    "4,6,9,11": (
        "b02088335bf0247e3954bd4f6412f56ea3900fa806bd76e6849d96daf773f53b",
        "17d832ebd15806281dea1c946bd3ac17e6f54d490a58d40d18bf4c5050666a3b",
    ),
    ",".join(map(str, range(21, 42))): (  # the ordinary semigroup of genus 20
        "ec033ee98fdc08cb76b58f60df2b84a9fca7bf3ee917fc0e909802623a802f2c",
        "7c46a8d64c47f62a7a5d1c48690c44fde51064f67371d21b1b3cd7a6199c5679",
    ),
}


@pytest.mark.parametrize("gens", list(SG_REPORT_GOLDEN))
def test_sg_report_golden(capsys, gens):
    digests = []
    for form in (["--json"], []):
        code, out, _ = run(capsys, "sg", "report", gens, *form, "--no-timing")
        assert code == 0
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(digests) == SG_REPORT_GOLDEN[gens]


def _digest(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--no-timing")
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


# sha256 of the stdout of `sg info G --json --no-timing` and of `sg info G
# --no-timing`, recorded while a semigroup was stored as a member mask
SG_INFO_GOLDEN = {
    "1": (
        "d3a28af1cd1da79bd6684a58de03fc5e225c69044a7bf7884da14a1c6295439e",
        "1cbd821c6f96f09436bc4ba6adcd9e57b32221803dd5f3cbb9e495a722417917",
    ),
    "2,5": (
        "c3e7cb1714a3f21a7692987caf5295a4cae3f0d3623a6860d609d0885f22f2bb",
        "b86d3ffa5be424753326de5d15c6305e1630c0fa5e04a75f60b8619f9cb68fe3",
    ),
    "3,4,5": (
        "00303f1b6b824f9049d2e81bce479a40d291786899af7055e88013d6ed399f72",
        "e0b592d5f9a904ba64e4fdb304ff660e53f202e73b6d5379417611e2c43ce149",
    ),
    "4,6,9,11": (
        "530eaad42167054749cac4b175a9c8fd08ae75cb575fc8c81075dee25b37f0fd",
        "cf4c7cd4a164faff64f279b31e1d6c4728371f01b2ad4c3b989dace9a9e4f6a1",
    ),
    "130,131": (
        "5c1251640c73d8e0a17c34f4d146262a2d93f2d27ecd9635b79c8c8531f95ebd",
        "655c10e27f5880c8ac1d32f9febe57abd58c9be6f67e97c59789b58a169e006a",
    ),
}


@pytest.mark.parametrize("gens", list(SG_INFO_GOLDEN))
def test_sg_info_golden(capsys, gens):
    forms = (["--json"], [])
    assert tuple(_digest(capsys, "sg", "info", gens, *form) for form in forms) == SG_INFO_GOLDEN[gens]


# sha256 of the stdout of `sg ideal G --ideal=I` with `--json`, as text and as
# text with `--stable`, each with --no-timing, recorded while E(I) was an AND
# of shifted member windows
SG_IDEAL_GOLDEN = {
    ("1", "0"): (
        "0b24f43e5913df8259bf655a52ab00bd0ba06b5e473ce0b9fb690b1e075634db",
        "b27da5ff223fd8dd3fbe52f5062781c5c02f404deebc0727d70ce34d9e28f2cc",
        "280a0989a260e62fa8543260b88b9880c8ac0367c301b72d2d77b924f358b8b3",
    ),
    ("3,4,5", "0,1"): (
        "8791c28fd653fec9acbadce084a66a54a31384161c8fa4bc43c34b35732a22d0",
        "b6811f3866cef70c6de8b12ed5426d55548bee9d78baee1b834027ffe419797c",
        "83c7f5f1d541ac4a11121986ed5187a0350854b93052bda1292acd1e21a56923",
    ),
    ("3,4,5", "-5,0,1"): (
        "af7765b80c201de3d03ccbac2788c3c44c4ec92f4faca4c06f243ab0d657f922",
        "8dfab52a0d0ffaa90d0c2efb72fa078ee59ea2bf77908af9882958d874d9cc7b",
        "280a0989a260e62fa8543260b88b9880c8ac0367c301b72d2d77b924f358b8b3",
    ),
    ("2,7", "-3,0,4"): (
        "61e685394f1085232fb1ef711ff3d0ce358bc89d646707f3a31c3b32986440c9",
        "69090b7b45063f69a4a9cb4a755be2df4e5db6e735d42faeb2db6f8f923ce628",
        "280a0989a260e62fa8543260b88b9880c8ac0367c301b72d2d77b924f358b8b3",
    ),
    ("5,7,9", "-4,0,3"): (
        "be8a56b34554cdc75efcd446bdca5623266f719d25f84dc6093dfa5e13d0518e",
        "b0b61ac3c74395eeeebebce296efd1defa7d9c284e60b162310ad393822642de",
        "83c7f5f1d541ac4a11121986ed5187a0350854b93052bda1292acd1e21a56923",
    ),
    ("4,6,9,11", "-2,0,3"): (
        "f4c65a937bad825759055b8bcf473f9b8cce0b3929ad27a48273e4f462a1e47a",
        "ecd39ae1067c10db4169088b172f189b4f89d74153f24663e09385bd7c702a0c",
        "83c7f5f1d541ac4a11121986ed5187a0350854b93052bda1292acd1e21a56923",
    ),
    ("130,131", "-7,0,1,65"): (
        "300f4b6ad86d4da59812fc7d3d17304d34c82986574e3c196160e96136c1be45",
        "ba14c2ca2d6b7784849dd8c41cdff29a1013c401541350290d20602db59ac7e4",
        "83c7f5f1d541ac4a11121986ed5187a0350854b93052bda1292acd1e21a56923",
    ),
}


@pytest.mark.parametrize("gens, ideal", list(SG_IDEAL_GOLDEN))
def test_sg_ideal_golden(capsys, gens, ideal):
    forms = (["--json"], [], ["--stable"])
    digests = tuple(_digest(capsys, "sg", "ideal", gens, f"--ideal={ideal}", *form) for form in forms)
    assert digests == SG_IDEAL_GOLDEN[gens, ideal]


# sha256 of the stdout of `sg tower ARGS --json --no-timing` and of `sg tower
# ARGS --no-timing`, recorded while the tower came back as a report record
SG_TOWER_GOLDEN = {
    ("1",): (
        "bb22f7c370cca46e47afc1f4963e162c4773d90abb871d0ab33f1520221c4cae",
        "92892538c774cb1ca54c8cac4612845c5ec1da15220d07838649a2d53e537a8f",
    ),
    ("2,7",): (
        "bed42d861212dc4b1e257784b23c3de61aedf9c2dbceb86b91585da6a2444045",
        "43d6217d68912227136f23d6dc3ea0387acc89a4ee408625ea0199b1957c7fba",
    ),
    ("3,4,5",): (
        "021e7306e744dee76dc22f98d24292a6da05248c8885ab6b2300346267e28e87",
        "b27b99349fa608e82f53ff23a7af5bea59b6ad53964986ac1e2eaa616deb4dbb",
    ),
    ("4,6,9,11",): (
        "22b9eb4feef54a75f899df699ceaf079a5b3d112923cd35302278e66259b0cc3",
        "b046e9208389e81f0dd2ed697aa565eaf62713bbdfe664c631a4edf27aa27d24",
    ),
    ("130,131",): (
        "86aa5115311de6d155c92d4b435a465742d0c5e420d9315e3b39644c29dbdd10",
        "97d7aef48d95604cfcb14fd700f5cfb0ea2d304bd50207afab4d94a9142d8a0a",
    ),
    ("5,7,9", "--cap", "1"): (
        "2338e9fe7e55dfe264d295bdf444642ef448b3cc25e177ad11cf2da07a1e41da",
        "ca5f55befbd59dd9bcd6c310634021d35cf899371647653a95af636757b4e1c1",
    ),
}


@pytest.mark.parametrize("argv", list(SG_TOWER_GOLDEN))
def test_sg_tower_golden(capsys, argv):
    forms = (["--json"], [])
    assert tuple(_digest(capsys, "sg", "tower", *argv, *form) for form in forms) == SG_TOWER_GOLDEN[argv]


def test_sg_two_gen(capsys):
    code, out, _ = run(capsys, "sg", "two-gen", "2,7", "--json", "--no-timing")
    assert code == 0
    result = json.loads(out)["result"]
    assert result == {
        "semigroup": "2,7",
        "power_two_generated": True,
        "mult_le_2": True,
        "agree": True,
    }


def test_sweep_small(capsys):
    code, out, _ = run(capsys, "sweep", "--max-genus", "0", "--json", "--no-timing")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["semigroup_count"] == 1
    assert result["violations_total"] == 0


def test_sweep_genus_cap(capsys):
    code, _, err = run(capsys, "sweep", "--max-genus", "99")
    assert code == 3
    assert "CapExceeded" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("sg", "two-gen", "3,4,5", "--n-max", "100000000"),
        ("sweep", "--max-genus", "3", "--n-max", "100000000"),
        ("sweep", "--max-genus", "16", "--sally-genus-cap", "15"),
        ("sweep", "--max-genus", str(ENUMERATION_GENUS_CAP + 1)),  # refused before the walk starts
    ],
)
def test_sweep_knob_caps(capsys, argv):
    started = time.monotonic()
    code, out, err = run(capsys, *argv, "--json")
    assert code == 3 and out == ""
    assert "CapExceeded" in err
    assert time.monotonic() - started < 5.0


@pytest.mark.parametrize(
    "argv",
    [
        ("sg", "info", "100000,100001"),  # conductor near 10^10
        ("sg", "info", "3,1000000000"),
        ("sg", "info", ",".join(str(z) for z in range(1000, 1001 + GENERATOR_CAP))),
        ("sg", "ideal", "3,4", "--ideal", ",".join(str(z) for z in range(GENERATOR_CAP + 1))),
    ],
)
def test_semigroup_caps(capsys, argv):
    started = time.monotonic()
    code, out, err = run(capsys, *argv, "--json")
    assert code == 3 and out == ""
    assert "CapExceeded" in err
    assert time.monotonic() - started < 5.0


def test_report_genus_cap(capsys):
    # genus 21: the census refuses it before any work
    started = time.monotonic()
    code, out, err = run(capsys, "sg", "report", "7,8", "--json")
    assert code == 3 and out == ""
    assert "CapExceeded" in err
    assert time.monotonic() - started < 1.0


def test_generator_past_the_window_is_cheap(capsys):
    started = time.monotonic()
    code, out, _ = run(capsys, "sg", "info", "100,101,10000000", "--json", "--no-timing")
    assert code == 0
    assert json.loads(out)["result"]["frobenius"] == 9899
    assert time.monotonic() - started < 5.0


def test_tower_work_cap(capsys):
    # the largest admitted A of A,A+1 runs out of work budget long before
    # a million steps, whatever --cap says
    started = time.monotonic()
    code, out, err = run(capsys, "sg", "tower", "1024,1025", "--cap", "1000000", "--json")
    assert code == 3 and out == ""
    assert "CapExceeded" in err
    assert time.monotonic() - started < 30.0


def test_n_max_below_two_is_usage_error(capsys):
    for argv in (("sg", "two-gen", "3,4,5"), ("sweep", "--max-genus", "3")):
        code, _, err = run(capsys, *argv, "--n-max", "1", "--json")
        assert code == 2
        assert "ValueError" in err


def test_negative_sally_genus_cap_is_usage_error(capsys):
    # refused, not read as "no Sally pass"
    code, out, err = run(capsys, "sweep", "--max-genus", "3", "--sally-genus-cap=-1", "--json")
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: ValueError: sally genus cap must be nonnegative"]


def test_n_max_is_checked_once_per_two_gen(capsys, monkeypatch):
    calls = []
    check = ringlab.check_n_max
    monkeypatch.setattr(ringlab, "check_n_max", lambda n_max: calls.append(n_max) or check(n_max))
    code, out, _ = run(capsys, "sg", "two-gen", "3,4,5", "--n-max", "5", "--json", "--no-timing")
    assert code == 0 and json.loads(out)["result"]["agree"]
    assert calls == [5]


def test_sweep_deterministic_output(capsys):
    args = ("sweep", "--max-genus", "4", "--seed", "1", "--no-timing", "--json")
    _, out1, _ = run(capsys, *args, "--jobs", "1")
    _, out2, _ = run(capsys, *args, "--jobs", "2")
    assert out1 == out2


def test_usage_errors(capsys):
    code, _, _ = run(capsys, "sg", "info", "not-numbers")
    assert code == 2
    code, _, _ = run(capsys, "sg", "info", "2,4")  # gcd 2
    assert code == 2
    code, _, _ = run(capsys, "nope")
    assert code == 2
    code, out, _ = run(capsys, "sweep", "--max-genus", "-1")
    assert code == 2 and out == ""
    # a group word without a leaf, or with an unknown one
    for argv in (("sg",), ("sg", "bogus"), ("alg",), ("idealization",)):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "usage: stablerings" in err
    for argv in (("--help",), ("sg", "info", "--help")):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.startswith("usage: stablerings")


DUAL_TABLE = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]


def _cube(q):
    """The structure table of F_q x F_q x F_q on the basis 1, e, f: e and f orthogonal idempotents."""
    return {"field": f"F{q}", "dim": 3, "table": [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [0, 1, 0], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [0, 0, 1]],
    ]}


def test_alg_classify(capsys, tmp_path):
    path = tmp_path / "f222.json"
    path.write_text(json.dumps(_cube(2)))
    code, out, _ = run(capsys, "alg", "classify", str(path), "--json", "--no-timing")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["class"] == "FxFxF_overF2"
    assert result["maximal_ideals"] == 3


def test_alg_classify_local(capsys, tmp_path):
    table = {"field": "F2", "dim": 2, "table": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]}
    path = tmp_path / "dual.json"
    path.write_text(json.dumps(table))
    code, out, _ = run(capsys, "alg", "classify", str(path))
    assert code == 0
    assert "class: LocalSquareZeroMax" in out


F4_TABLE = {"field": "F2", "dim": 2, "table": [[[1, 0], [0, 1]], [[0, 1], [1, 1]]]}
# sha256 of the stdout of `alg classify FILE --json --no-timing` and of `alg
# classify FILE --no-timing`, recorded while the CLI scanned the idempotents
# of every algebra after classifying it
ALG_CLASSIFY_GOLDEN = {
    "F3-base": (
        {"field": "F3", "dim": 1, "table": [[[1]]]},
        "599270ea1bf958bd113be1008102bdfcda07bcc5007b6572fa9516d0ab4625e5",
        "62e12ba722059d10155d88121988444493f322e88207fd876420c53a182f7939",
    ),
    "F4-over-F2": (
        F4_TABLE,
        "01e70adf947f2fd619557e61dca1affe2b7a6bfa50b45e71d0121aaa398fee6a",
        "aaff1a6f9cd114d0a30347ea5429cd01acbe6e4d0b0c08c9edf3a66601ac9b16",
    ),
    "F5-dual": (
        {"field": "F5", "dim": 2, "table": DUAL_TABLE},
        "d8444fd9284930e330e6be0f92ce56ebb607a11cb62982be8d8553416d0b27ca",
        "c4707d64daa7bbfcabd6ceb3b58f7013e656573b75f9e195830b1eb37eb9a3ad",
    ),
    "F2xF2": (
        {"field": "F2", "dim": 2, "table": [[[1, 0], [0, 1]], [[0, 1], [0, 1]]]},
        "ead2368e3794f3ff18675bbf012272c21625acdb7af6bb0a57640a4a81ca623b",
        "a6b9797b8856c250119c63e2bfa64464e7b05eba60849fc9f06f3cc06dd23513",
    ),
    "F2^3": (
        _cube(2),
        "004d763ed43ec7d8dee41f729655f0a9102c10c98372d6117e2b29ae95b9a1fe",
        "8ca2dd9db1a8318821ca6eaaf386ca0b8f311315e9d62cecea49c812d635531e",
    ),
    "F3^3": (  # not quadratic, three maximal ideals
        _cube(3),
        "caca02d3db9fb910a6a5d40f03f928b25963857481e604f987358b66dbfc9ddc",
        "be3473d12b7e83bac057500322ca0dcd8f54471dadc5220b831cce1d8cf67aa5",
    ),
    "F8-over-F2": (  # not quadratic, local
        {"field": "F2", "dim": 3, "table": [
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[0, 1, 0], [0, 0, 1], [1, 1, 0]],
            [[0, 0, 1], [1, 1, 0], [0, 1, 1]],
        ]},
        "1eb3c8aabea9ad17bf3ea6c29819d3f3312f54c8bee5e247f27303ef90aaa1f3",
        "d75f30d694df2a8476959185f69118f8a712c5adeeaceedc743edf16de2a1e3f",
    ),
}


@pytest.mark.parametrize("name", list(ALG_CLASSIFY_GOLDEN))
def test_alg_classify_golden(capsys, tmp_path, name):
    table, *golden = ALG_CLASSIFY_GOLDEN[name]
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(table))
    assert [_digest(capsys, "alg", "classify", str(path), *form) for form in (["--json"], [])] == golden


def test_alg_classify_scans_the_idempotents_once(capsys, tmp_path, monkeypatch):
    scans = []
    count = quadalg.maximal_ideal_count
    monkeypatch.setattr(quadalg, "maximal_ideal_count", lambda A: scans.append(A) or count(A))
    path = tmp_path / "f4.json"
    path.write_text(json.dumps(F4_TABLE))
    code, out, _ = run(capsys, "alg", "classify", str(path), "--json")
    assert code == 0
    assert json.loads(out)["result"]["maximal_ideals"] == 1
    assert len(scans) == 1


def test_alg_classify_invalid_table(capsys, tmp_path):
    table = {
        "field": "F2",
        "dim": 3,
        "table": [
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
            [[0, 0, 1], [1, 0, 0], [1, 0, 0]],
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(table))
    code, _, err = run(capsys, "alg", "classify", str(path))
    assert code == 2
    assert "NotAssociative at (i,j,k)=" in err


MALFORMED_ALGEBRA_FILES = {
    "table-int": {"field": "F2", "dim": 2, "table": 5},
    "table-flat": {"field": "F2", "dim": 2, "table": [[5, 6], [7, 8]]},
    "null-vector": {"field": "F2", "dim": 2, "table": [[[1, 0], None], [[0, 1], [0, 0]]]},
    "table-str": {"field": "F2", "dim": 2, "table": "ab"},
    "field-list": {"field": ["F2"], "dim": 2, "table": DUAL_TABLE},
    "field-object": {"field": {"F2": 2}, "dim": 2, "table": DUAL_TABLE},
    "dim-true": {"field": "F2", "dim": True, "table": [[[1]]]},
    "dim-float": {"field": "F2", "dim": 2.0, "table": DUAL_TABLE},
    "coefficient-true": {"field": "F2", "dim": 2, "table": [[[True, 0], [0, 1]], [[0, 1], [0, 0]]]},
}


@pytest.mark.parametrize(
    "text",
    [json.dumps(p) for p in MALFORMED_ALGEBRA_FILES.values()]
    + ['{"field": "F2", "dim": 2, "table": ' + "[" * 100_000 + "]" * 100_000 + "}"],
    ids=[*MALFORMED_ALGEBRA_FILES, "nested-too-deeply"],
)
def test_alg_classify_malformed_file(capsys, tmp_path, text):
    path = tmp_path / "malformed.json"
    path.write_text(text)
    code, out, err = run(capsys, "alg", "classify", str(path), "--json")
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_alg_classify_missing_file(capsys):
    code, _, err = run(capsys, "alg", "classify", "/nonexistent/file.json")
    assert code == 2


def test_idealization_check(capsys):
    code, out, _ = run(
        capsys,
        "idealization", "check",
        "--field", "F2", "--rank", "2", "--prec", "16",
        "--trials", "10", "--seed", "7", "--json", "--no-timing",
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["pass"] is True
    assert result["hilbert"]["expected_slope"] == 3
    assert result["hilbert"]["slope_ok"] is True
    assert result["square_zero_prime"]["p_squared_zero"] is True
    assert result["stability"]["not_stable"] == 0


# sha256 of the stdout of the benchmark's ideal-q command at seed 1, recorded
# before the witness search stopped reducing trial ideals
IDEAL_Q_GOLDEN = "73b585ec828b0d44045cf54104605511ed0d11d21d72473c24941ed6aec7f64a"


def test_idealization_ideal_q_golden(capsys):
    code, out, _ = run(
        capsys,
        "idealization", "check",
        "--field", "Q", "--rank", "3", "--prec", "16",
        "--trials", "160", "--seed", "1", "--json", "--no-timing",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == IDEAL_Q_GOLDEN


# sha256 of the stdout of `sweep --max-genus 12 --json --no-timing` (md5 b90ca5db...),
# the benchmark's sweep-g12 report
SWEEP_G12_GOLDEN = "b3fe92d47f8ca36c1b2bf631482746a6574add5b3b5ee2e5b89b74be3191ef1f"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_g12_golden(capsys, jobs):
    code, out, _ = run(capsys, "sweep", "--max-genus", "12", "--json", "--no-timing", "--jobs", jobs)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_G12_GOLDEN


# sha256 of the stdout of `sweep --max-genus 16 --json --no-timing` (md5 1c673718...),
# recorded before the sweep walked subtrees; its 118 root tasks run the pool and the merge
SWEEP_G16_GOLDEN = "f23db30175cda58095c9053282d46961859c1380331c82d4d328d7734fb75f0e"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_g16_golden(capsys, jobs):
    code, out, _ = run(capsys, "sweep", "--max-genus", "16", "--json", "--no-timing", "--jobs", jobs)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_G16_GOLDEN


# sha256 of the stdout of `sweep --max-genus 10 --sally-genus-cap 10 --n-max 32
# --json --no-timing`, recorded before the Sally pass ran on bare hole masks
SALLY_N32_GOLDEN = "970cf96dba5165ba691c90c54283d8e172fc5896c105faa7e6c3ddca15da953c"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_sally_n32_golden(capsys, jobs):
    code, out, _ = run(
        capsys,
        "sweep", "--max-genus", "10", "--sally-genus-cap", "10", "--n-max", "32",
        "--json", "--no-timing", "--jobs", jobs,
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SALLY_N32_GOLDEN


# (sha256 of the stdout of `idealization check --field F --rank R --prec N --trials T
# --seed 1 --json --no-timing`, the same of its text output, exit code), recorded
# while rational coefficients could be Fractions: F2, F3 and F5 in the shape of the
# benchmark's ideal-fp workload, and Q at the two least precisions, where trials go
# inconclusive
IDEAL_CHECK_GOLDEN = {
    ("F2", 3, 64, 60): (
        "e4eb032c90111149fd5112d8fa1b3d241c03e38a461edccac8dd333e08bff5fa",
        "971500eb21fd9a78cb015a885cc15c52c6a0b130935f9ec836c7099199db03e2",
        0,
    ),
    ("F3", 3, 64, 60): (
        "8f5270e077f02cb8c505a11696bcc7c8f42ee08db5f171906ead0c5ec70b2423",
        "1b36c3d18560361ef29b09661d2763d338dced0595ef9c903cf334cdafa947c8",
        0,
    ),
    ("F5", 3, 64, 60): (
        "15009ad922f2d39121aef45d16a1157fe47f056379eb1d218076ce6e93c4cb1c",
        "5a3c66fb7da3547225fd7d9589185153de995aa6e5a1be9e191ffc334d8cb901",
        0,
    ),
    ("Q", 1, 4, 30): (
        "1adf1a3f0dd10d79461c667625a0e5f97f394d26d370ff6e25a2e66961b9be6e",
        "7795ac7158c6debf795a5f2f1ce0ffd9464f1a291d0ebba7375b5d1f5703114e",
        1,
    ),
    ("Q", 8, 4, 30): (
        "a51aedd9e3acd41fd60e7d36d248ed3c9e9ab2f2a9eebcc38c58f82e80c56522",
        "4223e05fd9d2411d45ce9e14eeeb81b4da5f28d1796ffd4abca23b8da5c8a398",
        1,
    ),
    ("Q", 1, 5, 30): (
        "96c38786282893bac1fffa7b54898153333b5ed249ce8c848d4c3259a997b417",
        "eac2806246d95d94530143827f9b85be6ead21e39bba8a34a1b77df079e72066",
        1,
    ),
    ("Q", 8, 5, 30): (
        "ded3846198e081217a180784959fab8e516b794581c8168bc5acc8dc012c5c25",
        "e400ee2e15ab71b01ade170dab2a34802ac94d5bb09d21412f8a431b86ba1563",
        1,
    ),
}


@pytest.mark.parametrize("field, rank, prec, trials", list(IDEAL_CHECK_GOLDEN))
def test_idealization_check_golden(capsys, field, rank, prec, trials):
    argv = ["idealization", "check", "--field", field, "--rank", str(rank), "--prec", str(prec)]
    argv += ["--trials", str(trials), "--seed", "1", "--no-timing"]
    runs = [run(capsys, *argv, *form) for form in (["--json"], [])]
    digests = tuple(hashlib.sha256(out.encode()).hexdigest() for _, out, _ in runs)
    assert runs[0][0] == runs[1][0]
    assert (*digests, runs[0][0]) == IDEAL_CHECK_GOLDEN[field, rank, prec, trials]


def test_idealization_low_precision_reports_skips(capsys):
    code, out, _ = run(
        capsys,
        "idealization", "check",
        "--rank", "1", "--prec", "4", "--trials", "4", "--json", "--no-timing",
    )
    result = json.loads(out)["result"]
    skipped = {p["n"] for p in result["hilbert"]["skipped"]}
    assert skipped == {3, 4, 5, 6}
    assert all(p["reason"] == "PrecisionTooLow" for p in result["hilbert"]["skipped"])
    # at this precision the stability margin is 2, so trials go inconclusive
    # and the check reports rather than certifies
    if result["stability"]["inconclusive_rate"] >= 0.05:
        assert code == 1 and result["pass"] is False


def test_idealization_bad_rank(capsys):
    code, _, err = run(capsys, "idealization", "check", "--rank", "0")
    assert code == 2
    assert "BadRank" in err


def test_idealization_negative_trials(capsys):
    code, _, err = run(capsys, "idealization", "check", "--trials", "-5", "--json")
    assert code == 2
    assert "BadTrials" in err


IDEALIZATION_CAP_KNOBS = [
    ("--prec", "1000000000"),
    ("--rank", "1000000000"),
    ("--trials", "1000000000"),
    # every knob within its own cap, the product past the work cap
    ("--field", "Q", "--rank", "8", "--prec", "256", "--trials", "10000"),
]


@pytest.mark.parametrize("knob", IDEALIZATION_CAP_KNOBS)
def test_idealization_caps(capsys, knob):
    started = time.monotonic()
    code, _, err = run(capsys, "idealization", "check", *knob, "--json")
    assert code == 3
    assert "CapExceeded" in err
    assert time.monotonic() - started < 5.0


@pytest.mark.parametrize(
    "knob, expected",
    [(knob, (3, "CapExceeded")) for knob in IDEALIZATION_CAP_KNOBS] + [(("--trials", "-1"), (2, "BadTrials"))],
)
def test_idealization_caps_refuse_before_the_ring(capsys, monkeypatch, knob, expected):
    # the caps are checked once, where the sizes enter: no ring is built for a refused check
    def unreachable(*args):
        raise AssertionError("a ring was built for a refused check")

    monkeypatch.setattr(idealization, "make_ring", unreachable)
    code, _, err = run(capsys, "idealization", "check", *knob, "--json")
    assert (code, err.split(":")[1].strip()) == expected


def _square_zero(d):
    """The structure table of F2[x_1..x_{d-1}]/(x_1..x_{d-1})^2 on the basis 1, x_1, ..., x_{d-1}."""
    unit = [[1 if k == i else 0 for k in range(d)] for i in range(d)]
    table = [[unit[i + j] if i * j == 0 else [0] * d for j in range(d)] for i in range(d)]
    return {"field": "F2", "dim": d, "table": table}


def test_alg_classify_pair_bound(capsys, tmp_path, monkeypatch):
    # the bound is checked from field and dim before the table is validated,
    # whatever its dimension; validation multiplies basis vectors
    def unreachable(*args):
        raise AssertionError("an oversized table was validated")

    monkeypatch.setattr(quadalg.StructureAlgebra, "mul", unreachable)
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"field": "F2", "dim": 1000000000, "table": []}))
    # F2[x_1..x_12]/(x_1..x_12)^2: valid, 8,192 elements, 33.5M pairs
    path = tmp_path / "square_zero_13.json"
    path.write_text(json.dumps(_square_zero(13)))
    for p in (huge, path):
        started = time.monotonic()
        code, out, err = run(capsys, "alg", "classify", str(p), "--json")
        assert (code, out) == (3, "")
        assert "pair-test bound" in err
        assert time.monotonic() - started < 1.0


# the cap of each integer knob in the command table; None for a knob without one
KNOB_CAPS = {
    "--cap": None,
    "--n-max": ringlab.N_MAX_CAP,
    "--max-genus": ENUMERATION_GENUS_CAP,
    "--sally-genus-cap": sweep.SALLY_GENUS_CAP_MAX,
    "--rank": idealization.RANK_CAP,
    "--prec": idealization.PREC_CAP,
    "--trials": idealization.TRIALS_CAP,
    "--seed": None,
    "--jobs": None,
}
MALFORMED_GENERATORS = [
    "", ",", "a,b", "3;5", "0,3", "-1,3", "4,6", "3,1000000000", "2," + str(10**100 + 1),
    ",".join(str(z) for z in range(1000, 1001 + GENERATOR_CAP)),
]
MALFORMED_IDEALS = [
    ",", "x", "-1,0", "0," + str(10**100), str(-(10**100)) + ",0",
    ",".join(str(z) for z in range(GENERATOR_CAP + 1)),
]
DUAL_NUMBERS = {"field": "F2", "dim": 2, "table": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]}
MALFORMED_ALGEBRAS = [
    "not json", "[" * 100_000, b"\xff", "[1, 2, 3]", "{}",
    *(
        json.dumps({**DUAL_NUMBERS, **change})
        for change in (
            {"dim": True}, {"dim": "2"}, {"dim": 0}, {"dim": -1}, {"dim": 10**100}, {"dim": 13},
            {"field": "F9"}, {"field": 2}, {"table": [[[1, 0], [0, 1]], [[0, 1], [0, True]]]},
            {"table": [[[1, 0], [0, 1]], [[1, 1], [0, 0]]]}, {"table": [[[1, 0], [0, 1]]]},
        )
    ),
]


class OverBudget(Exception):
    """A command ran past its alarm."""


def _contract_argvs(tmp_path):
    """argv for each argument of each command in COMMANDS: malformed or at the edge of its cap.

    Every other argument holds a cheap admitted value, so an admitted argv
    costs at most a genus-4 sweep or a 5-trial idealization check.
    """
    files = []
    for i, text in enumerate([json.dumps(DUAL_NUMBERS), *MALFORMED_ALGEBRAS]):
        path = tmp_path / f"algebra_{i}.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        files.append(str(path))
    admitted = {"generators": "3,5", "--ideal": "0,2", "--max-genus": "4", "--trials": "5", "file": files[0]}
    drawn = {"generators": MALFORMED_GENERATORS, "--ideal": MALFORMED_IDEALS,
             "file": files[1:] + [str(tmp_path / "missing.json"), str(tmp_path)]}
    for words, (_, _, *arguments) in COMMANDS.items():
        base = list(words)
        for (flag, *_), _ in arguments:
            if flag in admitted:
                base += [flag, admitted[flag]] if flag.startswith("-") else [admitted[flag]]
        base += ["--jobs", "1", "--json"]
        for flags, kwargs in (*arguments, *COMMON):
            flag = flags[0]
            if kwargs.get("type") is int:
                cap = KNOB_CAPS[flag]  # a new integer knob needs its cap here
                values = ["0", "-1", "x", "2" if flag == "--jobs" else str(10**100)]  # no pool past 2
                values += [] if cap is None else [str(cap + 1)]
            elif "choices" in kwargs:
                values = ["F7"]
            else:
                values = drawn.get(flag, [])
            for value in values:
                if flag.startswith("-"):
                    yield [*base, f"{flag}={value}"]
                else:
                    yield [value if arg == admitted[flag] else arg for arg in base]


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs signal.alarm")
def test_resource_contract_from_the_command_table(capsys, tmp_path):
    # no argv drives the tool past a second or two, out of the exit-code
    # contract, or into a traceback; refusals print nothing on stdout
    def over_budget(signum, frame):
        raise OverBudget

    faults = []
    previous = signal.signal(signal.SIGALRM, over_budget)
    try:
        for argv in _contract_argvs(tmp_path):
            signal.alarm(2)
            try:
                code = main(argv)
            except Exception as exc:  # the contract is that none escapes
                code = type(exc).__name__
            finally:
                signal.alarm(0)
            out = capsys.readouterr().out
            if code in (0, 1):
                json.loads(out)
            elif code not in (2, 3) or out:
                faults.append((argv[:4], code, out[:80]))
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert faults == []


# The costliest admitted commands and their exit codes.  The costliest
# idealization check has the most trials the caps allow, not the largest
# ring.  In fresh processes on a shared 2-core Xeon with Python 3.11.7, three
# runs each, the 10,000 trials over Q took 1.22-1.25 s of CPU and 24 MB of
# address space, the tower 0.75-0.77 s and 29 MB (VmPeak; 26 MB resident),
# and the rest under 0.6 s; an earlier measurement on the same box gave the
# tower 1.6 s.
# So the limits below leave at least six times that CPU and about nine times
# that address space.
WORST_ADMITTED = {
    "check-Q-rank-8": (["idealization", "check", "--field", "Q", "--rank", "8", "--prec", "256",
                        "--trials", "48", "--seed", "1"], 0),
    "check-Q-1000-trials": (["idealization", "check", "--field", "Q", "--rank", "1", "--prec", "250",
                             "--trials", "1000", "--seed", "1"], 0),
    "check-Q-10000-trials": (["idealization", "check", "--field", "Q", "--rank", "1", "--prec", "16",
                              "--trials", "10000", "--seed", "1"], 0),
    "tower-work-cap": (["sg", "tower", "1024,1025", "--cap", "1000000"], 3),  # after 68 steps
    "square-zero-8": (["alg", "classify", "square_zero_8.json"], 0),  # 256 elements, 32,896 pairs
}
CHILD_CPU_SECONDS = 10
CHILD_ADDRESS_SPACE = 256 << 20


@pytest.mark.parametrize("name", WORST_ADMITTED)
def test_worst_admitted_commands_within_limits(tmp_path, name):
    # a command past a limit is killed or fails to allocate (MemoryError,
    # exit 1), so each must still return its own exit code
    resource = pytest.importorskip("resource")
    argv, expected = WORST_ADMITTED[name]
    (tmp_path / "square_zero_8.json").write_text(json.dumps(_square_zero(8)))

    def limit():  # in the child, between fork and exec
        resource.setrlimit(resource.RLIMIT_CPU, (CHILD_CPU_SECONDS, CHILD_CPU_SECONDS))
        resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))

    env = dict(os.environ, PYTHONPATH=str(Path(stablerings.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "stablerings", *argv],
        cwd=tmp_path, env=env, preexec_fn=limit, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == expected, proc.stderr[-300:]
    assert (proc.stdout == "") is (expected == 3)


def test_idealization_seed_changes_trials_not_verdict(capsys):
    base = ["idealization", "check", "--rank", "1", "--trials", "5", "--json", "--no-timing"]
    code1, out1, _ = run(capsys, *base, "--seed", "1")
    code2, out2, _ = run(capsys, *base, "--seed", "1")
    assert code1 == code2 == 0
    assert out1 == out2


# Run in a fresh interpreter without site hooks (-S), so that only the
# package's own imports count: what importing the CLI loads, the exit code
# of a one-job sweep, whether that sweep loaded multiprocessing, the exit
# code of a check over Q, and whether that check loaded fractions.
IMPORT_PROBE = """
import contextlib, io, json, sys
from stablerings import cli
loaded = [m for m in ("dataclasses", "fractions", "inspect", "multiprocessing") if m in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["sweep", "--max-genus", "6", "--jobs", "1", "--json", "--no-timing"])
    pool = cli.main(["sweep", "--max-genus", "8", "--jobs", "2", "--json", "--no-timing"])
    check = cli.main(["idealization", "check", "--field", "Q", "--trials", "5", "--json", "--no-timing"])
print(json.dumps([loaded, code, pool, "multiprocessing" in sys.modules, check, "fractions" in sys.modules]))
"""


def test_cli_import_skips_dataclasses_and_multiprocessing():
    env = dict(os.environ, PYTHONPATH=str(Path(stablerings.__file__).parents[1]))
    argv = [sys.executable, "-S", "-c", IMPORT_PROBE]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, check=True, timeout=60)
    # the sweep's pool forks its workers itself, and rational coefficients are
    # integers, so nothing imports multiprocessing or fractions
    assert json.loads(proc.stdout) == [[], 0, 0, False, 0, False]


def _values():
    """One value of each record type, built twice by its constructors, and one of its fields."""
    S = numsg.from_generators([3, 5])
    F3 = quadalg.get_field("F3")
    table = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]  # F2[x]/(x^2)
    return [
        (S, numsg.from_generators([5, 3]), "genus"),
        (relideal.make_ideal(S, [0, 2]), relideal.make_ideal(S, [2, 0, 5]), "holes"),
        (F3, quadalg.SmallField(F3.name, F3.q, F3.add, F3.mul), "q"),
        (quadalg.algebra_from_table("F2", 2, table), quadalg.algebra_from_table("F2", 2, table), "dimension"),
        (idealization.make_ring("Q", 2, 10), idealization.make_ring("Q", 2, 10), "rank"),
    ]


@pytest.mark.parametrize(
    "a, b, field",
    _values(),
    ids=["NumericalSemigroup", "RelativeIdeal", "SmallField", "StructureAlgebra", "IdealizationRing"],
)
def test_record_types_are_immutable_values(a, b, field):
    assert a is not b and a == b and hash(a) == hash(b)
    for name in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)


def test_record_values_survive_the_pool_wire():
    S = numsg.from_generators([4, 6, 9, 11])
    assert pickle.loads(pickle.dumps(S)) == S
    args = (S, 12, 8, sweep.SALLY_GENUS_CAP)  # one sweep._task argument tuple
    assert pickle.loads(pickle.dumps(args)) == args


def test_ring_reads_its_precision_off_its_domain():
    ring = idealization.IdealizationRing(idealization.series_class("Q", 10), 2)
    assert ring.prec == ring.domain.n == 10 and ring.domain.p is None
    assert ring == idealization.make_ring("Q", 2, 10)
    assert ring.domain is idealization.series_class("Q", 10)  # one class per field and precision


def test_generator_mask_is_recomputed_alike():
    I = relideal.make_ideal(numsg.from_generators([4, 6, 9, 11]), [0, 2, 3])
    expected = relideal._generator_mask(I.ambient, I.holes)
    assert I.generator_mask == expected
    assert I.generator_mask == expected
