"""Byte-level golden outputs of the CLI on the shipped configs.

Pins the sha256 of every strategy file ``framedvs build`` writes, of the
``framedvs oracle`` report on each of those files with overheads off and
on, and of the ``simulate`` and ``sweep`` CSVs of the showcase
experiment. The shipped configs carry no switch penalties, so
sufficient zones and overheads-on runs coincide with the plain ones
there; the penalised cases add a pairwise penalty table to the same
systems so that the margined finish targets and the overhead branches
of the simulator and the oracle are pinned too. A refactor or speed-up must leave every hash unchanged; a
change that moves one on purpose says why in CHANGES.md.
"""
from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import pytest

from framedvs.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

VARIANTS = (
    ("limit", "closest"),
    ("dpms", "up"),
    ("dpms", "closest"),
    ("pitdvs", "up"),
    ("pitdvs", "closest"),
)


def _with_penalties(system: dict, step_s: float, same_s: float) -> dict:
    """Penalty |i - j| * step_s between modes i and j, same_s per same-speed switch."""
    m = len(system["cpu"]["freqs_mhz"])
    out = json.loads(json.dumps(system))
    out["cpu"]["pt_matrix_s"] = [[abs(i - j) * step_s for j in range(m)] for i in range(m)]
    out["cpu"]["st_vector_s"] = [same_s] * m
    return out


def _system_file(name: str, tmp_path: Path) -> Path:
    if not name.endswith("+pt"):
        return CONFIGS / f"{name}.json"
    base = json.loads((CONFIGS / f"{name[:-3]}.json").read_text())
    path = tmp_path / "penalised.json"
    path.write_text(json.dumps(_with_penalties(base, 1e-5, 2e-6)))
    return path


def _experiment_file(penalised: bool, tmp_path: Path) -> Path:
    if not penalised:
        return CONFIGS / "experiment_showcase.json"
    exp = json.loads((CONFIGS / "experiment_showcase.json").read_text())
    system = json.loads((CONFIGS / exp.pop("system_file")).read_text())
    exp["system"] = _with_penalties(system, 2e-5, 1e-6)
    exp["simulation"]["n_frames"] = 4000
    path = tmp_path / "penalised_experiment.json"
    path.write_text(json.dumps(exp))
    return path


def build_hash(system: str, zones: str, kind: str, mode: str, tmp_path: Path) -> str:
    out = tmp_path / "strategy.json"
    argv = ["build", "--system", str(_system_file(system, tmp_path)), "--kind", kind,
            "--mode", mode, "--zones", zones, "--out", str(out)]
    assert main(argv) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def csv_hash(verb: str, penalised: bool, overheads: str, tmp_path: Path) -> str:
    out = tmp_path / "out.csv"
    argv = [verb, "--config", str(_experiment_file(penalised, tmp_path)),
            "--overheads", overheads, "--out", str(out)]
    assert main(argv) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def oracle_hash(system: str, zones: str, kind: str, mode: str, overheads: str,
                tmp_path: Path, capsys) -> str:
    """sha256 of ``framedvs oracle`` stdout on the strategy ``build`` writes."""
    strategy = tmp_path / "strategy.json"
    system_file = str(_system_file(system, tmp_path))
    assert main(["build", "--system", system_file, "--kind", kind, "--mode", mode,
                 "--zones", zones, "--out", str(strategy)]) == 0
    capsys.readouterr()
    code = main(["oracle", "--system", system_file, "--strategy", str(strategy),
                 "--overheads", overheads])
    out = capsys.readouterr().out
    assert code == int(json.loads(out)["worst_case_miss"])
    return hashlib.sha256(out.encode()).hexdigest()


def build_key(system: str, zones: str, kind: str, mode: str) -> str:
    return f"build {system} {zones} {kind} {mode}"


def oracle_key(system: str, zones: str, kind: str, mode: str, overheads: str) -> str:
    return f"oracle {system} {zones} {kind} {mode} overheads={overheads}"


def csv_key(verb: str, penalised: bool, overheads: str) -> str:
    return f"{verb} {'penalised' if penalised else 'showcase'} overheads={overheads}"


BUILD_CASES = [
    (system, zones, kind, mode)
    for system in ("xscale", "ppc405", "two_freq_showcase")
    for zones in ("plain", "sufficient")
    for kind, mode in VARIANTS
] + [
    (system, "sufficient", kind, mode)
    for system in ("xscale+pt", "ppc405+pt")
    for kind, mode in VARIANTS
]

ORACLE_CASES = [case + (overheads,) for case in BUILD_CASES for overheads in ("off", "on")]

CSV_CASES = [
    (verb, penalised, overheads)
    for verb in ("simulate", "sweep")
    for penalised, overheads in ((False, "off"), (False, "on"), (True, "on"))
]

# sha256 of each output, recorded with the code as it was before this test existed
GOLDEN = {
    "build xscale plain limit closest":
        "d6aa8fb360d4b67bdb25aac3326f4b84ffc0dc47ef303c75e9c91e7a06fa84d9",
    "build xscale plain dpms up":
        "6185c6676daeb3eec622aadae933ba7e233d2074902873cc3594e1ae378dfc9f",
    "build xscale plain dpms closest":
        "711ec46109778839990fa41ec18a65a46cd6df2cb17044a73a94683935b1521a",
    "build xscale plain pitdvs up":
        "d6aa8fb360d4b67bdb25aac3326f4b84ffc0dc47ef303c75e9c91e7a06fa84d9",
    "build xscale plain pitdvs closest":
        "d6aa8fb360d4b67bdb25aac3326f4b84ffc0dc47ef303c75e9c91e7a06fa84d9",
    "build xscale sufficient limit closest":
        "d6aa8fb360d4b67bdb25aac3326f4b84ffc0dc47ef303c75e9c91e7a06fa84d9",
    "build xscale sufficient dpms up":
        "6185c6676daeb3eec622aadae933ba7e233d2074902873cc3594e1ae378dfc9f",
    "build xscale sufficient dpms closest":
        "711ec46109778839990fa41ec18a65a46cd6df2cb17044a73a94683935b1521a",
    "build xscale sufficient pitdvs up":
        "d6aa8fb360d4b67bdb25aac3326f4b84ffc0dc47ef303c75e9c91e7a06fa84d9",
    "build xscale sufficient pitdvs closest":
        "d6aa8fb360d4b67bdb25aac3326f4b84ffc0dc47ef303c75e9c91e7a06fa84d9",
    "build ppc405 plain limit closest":
        "1960283466cef41d8112c46dd4a1847fb4548c29ce41d47cc2bd521599b36703",
    "build ppc405 plain dpms up":
        "1c13d95cb18b437b65834d4aaf444151f0a685908b0cffbe65907db5672e4121",
    "build ppc405 plain dpms closest":
        "0f20b6da2281c3a5bb1a385de1b0f1b90c23d609bd8c2c2de957b4eb10de3174",
    "build ppc405 plain pitdvs up":
        "1960283466cef41d8112c46dd4a1847fb4548c29ce41d47cc2bd521599b36703",
    "build ppc405 plain pitdvs closest":
        "1960283466cef41d8112c46dd4a1847fb4548c29ce41d47cc2bd521599b36703",
    "build ppc405 sufficient limit closest":
        "1960283466cef41d8112c46dd4a1847fb4548c29ce41d47cc2bd521599b36703",
    "build ppc405 sufficient dpms up":
        "1c13d95cb18b437b65834d4aaf444151f0a685908b0cffbe65907db5672e4121",
    "build ppc405 sufficient dpms closest":
        "0f20b6da2281c3a5bb1a385de1b0f1b90c23d609bd8c2c2de957b4eb10de3174",
    "build ppc405 sufficient pitdvs up":
        "1960283466cef41d8112c46dd4a1847fb4548c29ce41d47cc2bd521599b36703",
    "build ppc405 sufficient pitdvs closest":
        "1960283466cef41d8112c46dd4a1847fb4548c29ce41d47cc2bd521599b36703",
    "build two_freq_showcase plain limit closest":
        "31bc4a7139511d2566547f3970a84f7ca90a87e873304d61d6840231ebfda280",
    "build two_freq_showcase plain dpms up":
        "de5d0da09dc2fa76eca1a4f515cd193d198aab4b929fd64fb49b5d14f57f761c",
    "build two_freq_showcase plain dpms closest":
        "31bc4a7139511d2566547f3970a84f7ca90a87e873304d61d6840231ebfda280",
    "build two_freq_showcase plain pitdvs up":
        "31bc4a7139511d2566547f3970a84f7ca90a87e873304d61d6840231ebfda280",
    "build two_freq_showcase plain pitdvs closest":
        "31bc4a7139511d2566547f3970a84f7ca90a87e873304d61d6840231ebfda280",
    "build two_freq_showcase sufficient limit closest":
        "31bc4a7139511d2566547f3970a84f7ca90a87e873304d61d6840231ebfda280",
    "build two_freq_showcase sufficient dpms up":
        "de5d0da09dc2fa76eca1a4f515cd193d198aab4b929fd64fb49b5d14f57f761c",
    "build two_freq_showcase sufficient dpms closest":
        "31bc4a7139511d2566547f3970a84f7ca90a87e873304d61d6840231ebfda280",
    "build two_freq_showcase sufficient pitdvs up":
        "31bc4a7139511d2566547f3970a84f7ca90a87e873304d61d6840231ebfda280",
    "build two_freq_showcase sufficient pitdvs closest":
        "31bc4a7139511d2566547f3970a84f7ca90a87e873304d61d6840231ebfda280",
    "build xscale+pt sufficient limit closest":
        "5e86a1d6a6d6d8c81b14653d3051ce573c1820f29f949168f336f1ea3f70ac1b",
    "build xscale+pt sufficient dpms up":
        "bd351b2aa7519507e1836a1ef039bc0dc363d30a16965866f5124f0cbdd119c0",
    "build xscale+pt sufficient dpms closest":
        "1dcafeee7a0966aa9944cfba84926e8361a0f2a40338bd2d6df235774e597a80",
    "build xscale+pt sufficient pitdvs up":
        "5e86a1d6a6d6d8c81b14653d3051ce573c1820f29f949168f336f1ea3f70ac1b",
    "build xscale+pt sufficient pitdvs closest":
        "5e86a1d6a6d6d8c81b14653d3051ce573c1820f29f949168f336f1ea3f70ac1b",
    "build ppc405+pt sufficient limit closest":
        "322aab176a2eda1a2fd3d428864ba8d9be36fe9d362ad0d717ebc6cbf107ee73",
    "build ppc405+pt sufficient dpms up":
        "958587ce766f97c95dad0c67c656b25e2ce4f53036b7ca44892154cbcbfaaaf9",
    "build ppc405+pt sufficient dpms closest":
        "34265023353a6d97791417b9e1a3ebfa6bfa34db954b7b7fa44ec1edbc4542eb",
    "build ppc405+pt sufficient pitdvs up":
        "322aab176a2eda1a2fd3d428864ba8d9be36fe9d362ad0d717ebc6cbf107ee73",
    "build ppc405+pt sufficient pitdvs closest":
        "322aab176a2eda1a2fd3d428864ba8d9be36fe9d362ad0d717ebc6cbf107ee73",
    "oracle xscale plain limit closest overheads=off":
        "b5f724a3e66c0526af7c8d1ed58b50dcce611fa1d7806c9d5c335c1e5074c1f1",
    "oracle xscale plain limit closest overheads=on":
        "b5f724a3e66c0526af7c8d1ed58b50dcce611fa1d7806c9d5c335c1e5074c1f1",
    "oracle xscale plain dpms up overheads=off":
        "8d2a59e688412dbe83f907bcd6ce0977baca6eb68a93169cee025fd6d8f787fb",
    "oracle xscale plain dpms up overheads=on":
        "8d2a59e688412dbe83f907bcd6ce0977baca6eb68a93169cee025fd6d8f787fb",
    "oracle xscale plain dpms closest overheads=off":
        "91724851867597fbeb02442bc1fa86e66dbb82bd9fffcc459f351e857cefc312",
    "oracle xscale plain dpms closest overheads=on":
        "91724851867597fbeb02442bc1fa86e66dbb82bd9fffcc459f351e857cefc312",
    "oracle xscale plain pitdvs up overheads=off":
        "b5f724a3e66c0526af7c8d1ed58b50dcce611fa1d7806c9d5c335c1e5074c1f1",
    "oracle xscale plain pitdvs up overheads=on":
        "b5f724a3e66c0526af7c8d1ed58b50dcce611fa1d7806c9d5c335c1e5074c1f1",
    "oracle xscale plain pitdvs closest overheads=off":
        "b5f724a3e66c0526af7c8d1ed58b50dcce611fa1d7806c9d5c335c1e5074c1f1",
    "oracle xscale plain pitdvs closest overheads=on":
        "b5f724a3e66c0526af7c8d1ed58b50dcce611fa1d7806c9d5c335c1e5074c1f1",
    "oracle xscale sufficient limit closest overheads=off":
        "b5f724a3e66c0526af7c8d1ed58b50dcce611fa1d7806c9d5c335c1e5074c1f1",
    "oracle xscale sufficient limit closest overheads=on":
        "b5f724a3e66c0526af7c8d1ed58b50dcce611fa1d7806c9d5c335c1e5074c1f1",
    "oracle xscale sufficient dpms up overheads=off":
        "8d2a59e688412dbe83f907bcd6ce0977baca6eb68a93169cee025fd6d8f787fb",
    "oracle xscale sufficient dpms up overheads=on":
        "8d2a59e688412dbe83f907bcd6ce0977baca6eb68a93169cee025fd6d8f787fb",
    "oracle xscale sufficient dpms closest overheads=off":
        "91724851867597fbeb02442bc1fa86e66dbb82bd9fffcc459f351e857cefc312",
    "oracle xscale sufficient dpms closest overheads=on":
        "91724851867597fbeb02442bc1fa86e66dbb82bd9fffcc459f351e857cefc312",
    "oracle xscale sufficient pitdvs up overheads=off":
        "b5f724a3e66c0526af7c8d1ed58b50dcce611fa1d7806c9d5c335c1e5074c1f1",
    "oracle xscale sufficient pitdvs up overheads=on":
        "b5f724a3e66c0526af7c8d1ed58b50dcce611fa1d7806c9d5c335c1e5074c1f1",
    "oracle xscale sufficient pitdvs closest overheads=off":
        "b5f724a3e66c0526af7c8d1ed58b50dcce611fa1d7806c9d5c335c1e5074c1f1",
    "oracle xscale sufficient pitdvs closest overheads=on":
        "b5f724a3e66c0526af7c8d1ed58b50dcce611fa1d7806c9d5c335c1e5074c1f1",
    "oracle ppc405 plain limit closest overheads=off":
        "324c8ecae3af20daa7e32a679ce0f048c41ff4a5d8acd65650f8cd37242586f8",
    "oracle ppc405 plain limit closest overheads=on":
        "324c8ecae3af20daa7e32a679ce0f048c41ff4a5d8acd65650f8cd37242586f8",
    "oracle ppc405 plain dpms up overheads=off":
        "a9bb7c4b6ad488a930d75f9d9abec90a96d07369dfa53ed2c4910b2ee232de0e",
    "oracle ppc405 plain dpms up overheads=on":
        "a9bb7c4b6ad488a930d75f9d9abec90a96d07369dfa53ed2c4910b2ee232de0e",
    "oracle ppc405 plain dpms closest overheads=off":
        "324c8ecae3af20daa7e32a679ce0f048c41ff4a5d8acd65650f8cd37242586f8",
    "oracle ppc405 plain dpms closest overheads=on":
        "324c8ecae3af20daa7e32a679ce0f048c41ff4a5d8acd65650f8cd37242586f8",
    "oracle ppc405 plain pitdvs up overheads=off":
        "324c8ecae3af20daa7e32a679ce0f048c41ff4a5d8acd65650f8cd37242586f8",
    "oracle ppc405 plain pitdvs up overheads=on":
        "324c8ecae3af20daa7e32a679ce0f048c41ff4a5d8acd65650f8cd37242586f8",
    "oracle ppc405 plain pitdvs closest overheads=off":
        "324c8ecae3af20daa7e32a679ce0f048c41ff4a5d8acd65650f8cd37242586f8",
    "oracle ppc405 plain pitdvs closest overheads=on":
        "324c8ecae3af20daa7e32a679ce0f048c41ff4a5d8acd65650f8cd37242586f8",
    "oracle ppc405 sufficient limit closest overheads=off":
        "324c8ecae3af20daa7e32a679ce0f048c41ff4a5d8acd65650f8cd37242586f8",
    "oracle ppc405 sufficient limit closest overheads=on":
        "324c8ecae3af20daa7e32a679ce0f048c41ff4a5d8acd65650f8cd37242586f8",
    "oracle ppc405 sufficient dpms up overheads=off":
        "a9bb7c4b6ad488a930d75f9d9abec90a96d07369dfa53ed2c4910b2ee232de0e",
    "oracle ppc405 sufficient dpms up overheads=on":
        "a9bb7c4b6ad488a930d75f9d9abec90a96d07369dfa53ed2c4910b2ee232de0e",
    "oracle ppc405 sufficient dpms closest overheads=off":
        "324c8ecae3af20daa7e32a679ce0f048c41ff4a5d8acd65650f8cd37242586f8",
    "oracle ppc405 sufficient dpms closest overheads=on":
        "324c8ecae3af20daa7e32a679ce0f048c41ff4a5d8acd65650f8cd37242586f8",
    "oracle ppc405 sufficient pitdvs up overheads=off":
        "324c8ecae3af20daa7e32a679ce0f048c41ff4a5d8acd65650f8cd37242586f8",
    "oracle ppc405 sufficient pitdvs up overheads=on":
        "324c8ecae3af20daa7e32a679ce0f048c41ff4a5d8acd65650f8cd37242586f8",
    "oracle ppc405 sufficient pitdvs closest overheads=off":
        "324c8ecae3af20daa7e32a679ce0f048c41ff4a5d8acd65650f8cd37242586f8",
    "oracle ppc405 sufficient pitdvs closest overheads=on":
        "324c8ecae3af20daa7e32a679ce0f048c41ff4a5d8acd65650f8cd37242586f8",
    "oracle two_freq_showcase plain limit closest overheads=off":
        "e0ef4de807d49056c4ed1449749daa606674e9ead4c1f05531e9ef687a86bb05",
    "oracle two_freq_showcase plain limit closest overheads=on":
        "e0ef4de807d49056c4ed1449749daa606674e9ead4c1f05531e9ef687a86bb05",
    "oracle two_freq_showcase plain dpms up overheads=off":
        "96916b97e47210f8b1db172226c27783ef0afb00654d0231da9425c190d21901",
    "oracle two_freq_showcase plain dpms up overheads=on":
        "96916b97e47210f8b1db172226c27783ef0afb00654d0231da9425c190d21901",
    "oracle two_freq_showcase plain dpms closest overheads=off":
        "e0ef4de807d49056c4ed1449749daa606674e9ead4c1f05531e9ef687a86bb05",
    "oracle two_freq_showcase plain dpms closest overheads=on":
        "e0ef4de807d49056c4ed1449749daa606674e9ead4c1f05531e9ef687a86bb05",
    "oracle two_freq_showcase plain pitdvs up overheads=off":
        "e0ef4de807d49056c4ed1449749daa606674e9ead4c1f05531e9ef687a86bb05",
    "oracle two_freq_showcase plain pitdvs up overheads=on":
        "e0ef4de807d49056c4ed1449749daa606674e9ead4c1f05531e9ef687a86bb05",
    "oracle two_freq_showcase plain pitdvs closest overheads=off":
        "e0ef4de807d49056c4ed1449749daa606674e9ead4c1f05531e9ef687a86bb05",
    "oracle two_freq_showcase plain pitdvs closest overheads=on":
        "e0ef4de807d49056c4ed1449749daa606674e9ead4c1f05531e9ef687a86bb05",
    "oracle two_freq_showcase sufficient limit closest overheads=off":
        "e0ef4de807d49056c4ed1449749daa606674e9ead4c1f05531e9ef687a86bb05",
    "oracle two_freq_showcase sufficient limit closest overheads=on":
        "e0ef4de807d49056c4ed1449749daa606674e9ead4c1f05531e9ef687a86bb05",
    "oracle two_freq_showcase sufficient dpms up overheads=off":
        "96916b97e47210f8b1db172226c27783ef0afb00654d0231da9425c190d21901",
    "oracle two_freq_showcase sufficient dpms up overheads=on":
        "96916b97e47210f8b1db172226c27783ef0afb00654d0231da9425c190d21901",
    "oracle two_freq_showcase sufficient dpms closest overheads=off":
        "e0ef4de807d49056c4ed1449749daa606674e9ead4c1f05531e9ef687a86bb05",
    "oracle two_freq_showcase sufficient dpms closest overheads=on":
        "e0ef4de807d49056c4ed1449749daa606674e9ead4c1f05531e9ef687a86bb05",
    "oracle two_freq_showcase sufficient pitdvs up overheads=off":
        "e0ef4de807d49056c4ed1449749daa606674e9ead4c1f05531e9ef687a86bb05",
    "oracle two_freq_showcase sufficient pitdvs up overheads=on":
        "e0ef4de807d49056c4ed1449749daa606674e9ead4c1f05531e9ef687a86bb05",
    "oracle two_freq_showcase sufficient pitdvs closest overheads=off":
        "e0ef4de807d49056c4ed1449749daa606674e9ead4c1f05531e9ef687a86bb05",
    "oracle two_freq_showcase sufficient pitdvs closest overheads=on":
        "e0ef4de807d49056c4ed1449749daa606674e9ead4c1f05531e9ef687a86bb05",
    "oracle xscale+pt sufficient limit closest overheads=off":
        "1cfb868f8665df79c577afff3e3ed5e34144fa6b96ab9fdf0973119c6dd469fe",
    "oracle xscale+pt sufficient limit closest overheads=on":
        "2f926f6277c98007206f48949d1ee301a5bcdf55c06ff9aa87426f32c96e4968",
    "oracle xscale+pt sufficient dpms up overheads=off":
        "d8268697770b25ea570d76c4ec5bf01878adf6862351ada816d64ec1ada4207e",
    "oracle xscale+pt sufficient dpms up overheads=on":
        "cd86d7657e3e066cde3dcbc48e93393e0d60a04bc9124504d33685c505a276c0",
    "oracle xscale+pt sufficient dpms closest overheads=off":
        "9d0c6b1c3affe3ea11b6a3ad336262a72e91141409de4ee8c42930c925033389",
    "oracle xscale+pt sufficient dpms closest overheads=on":
        "9cab8c62d49b67feb241a4b22244b31374b776eba62dbf3aa5f54df7afc0abf3",
    "oracle xscale+pt sufficient pitdvs up overheads=off":
        "1cfb868f8665df79c577afff3e3ed5e34144fa6b96ab9fdf0973119c6dd469fe",
    "oracle xscale+pt sufficient pitdvs up overheads=on":
        "2f926f6277c98007206f48949d1ee301a5bcdf55c06ff9aa87426f32c96e4968",
    "oracle xscale+pt sufficient pitdvs closest overheads=off":
        "1cfb868f8665df79c577afff3e3ed5e34144fa6b96ab9fdf0973119c6dd469fe",
    "oracle xscale+pt sufficient pitdvs closest overheads=on":
        "2f926f6277c98007206f48949d1ee301a5bcdf55c06ff9aa87426f32c96e4968",
    "oracle ppc405+pt sufficient limit closest overheads=off":
        "d7dc77c38fdfc0afffe46207c377a28e24607726618be76d271d0fa226c077ed",
    "oracle ppc405+pt sufficient limit closest overheads=on":
        "d94e95db11ab0576a1bed4e89d93f3055792f817302aa589ffebd4cca14369dd",
    "oracle ppc405+pt sufficient dpms up overheads=off":
        "7bf612c7b927a1c04fd982a2dbb4f028b717f5182a0b061890fc8ea8d887f599",
    "oracle ppc405+pt sufficient dpms up overheads=on":
        "7729d17051497e437bc505cd7b02baffdee0fce60aa843fb22d2f26954563462",
    "oracle ppc405+pt sufficient dpms closest overheads=off":
        "d7dc77c38fdfc0afffe46207c377a28e24607726618be76d271d0fa226c077ed",
    "oracle ppc405+pt sufficient dpms closest overheads=on":
        "d94e95db11ab0576a1bed4e89d93f3055792f817302aa589ffebd4cca14369dd",
    "oracle ppc405+pt sufficient pitdvs up overheads=off":
        "d7dc77c38fdfc0afffe46207c377a28e24607726618be76d271d0fa226c077ed",
    "oracle ppc405+pt sufficient pitdvs up overheads=on":
        "d94e95db11ab0576a1bed4e89d93f3055792f817302aa589ffebd4cca14369dd",
    "oracle ppc405+pt sufficient pitdvs closest overheads=off":
        "d7dc77c38fdfc0afffe46207c377a28e24607726618be76d271d0fa226c077ed",
    "oracle ppc405+pt sufficient pitdvs closest overheads=on":
        "d94e95db11ab0576a1bed4e89d93f3055792f817302aa589ffebd4cca14369dd",

    "simulate showcase overheads=off":
        "8bcf19209f3bad5a8deb4493e4734638d2061da875d58eedba922499965d84d3",
    "simulate showcase overheads=on":
        "8bcf19209f3bad5a8deb4493e4734638d2061da875d58eedba922499965d84d3",
    "simulate penalised overheads=on":
        "7bf6225f1453e8e1024af6929c25136f2d33c27323fb66da2423ff99d5788145",
    "sweep showcase overheads=off":
        "a9a7e3cb17060379ec0a833610b6df8f74ee8cc9572d74e37ea16340d95c0240",
    "sweep showcase overheads=on":
        "a9a7e3cb17060379ec0a833610b6df8f74ee8cc9572d74e37ea16340d95c0240",
    "sweep penalised overheads=on":
        "02960fd53f6d55b750ef9c2cd6b05330df77e108e08ab1a206c2bab37b02f54f",
}


@pytest.mark.parametrize("system,zones,kind,mode", BUILD_CASES)
def test_build_strategy_file_is_golden(system, zones, kind, mode, tmp_path):
    key = build_key(system, zones, kind, mode)
    assert build_hash(system, zones, kind, mode, tmp_path) == GOLDEN[key]


@pytest.mark.parametrize("system,zones,kind,mode,overheads", ORACLE_CASES)
def test_oracle_report_is_golden(system, zones, kind, mode, overheads, tmp_path, capsys):
    key = oracle_key(system, zones, kind, mode, overheads)
    assert oracle_hash(system, zones, kind, mode, overheads, tmp_path, capsys) == GOLDEN[key]


@pytest.mark.parametrize("verb,penalised,overheads", CSV_CASES)
def test_csv_is_golden(verb, penalised, overheads, tmp_path):
    key = csv_key(verb, penalised, overheads)
    assert csv_hash(verb, penalised, overheads, tmp_path) == GOLDEN[key]


def test_showcase_sweep_saves_a_fifth_over_round_up(tmp_path):
    """The paper's headline: closest discretization spends >= 20% less than round-up.

    On the seeded sweep of the shipped two-frequency experiment (seed
    2024, 20k frames), dpms_up spends 1.2587 times the energy of the
    dpms_closest baseline at D = 0.001825 s, a 20.55% saving for closest.
    """
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(CONFIGS / "experiment_showcase.json"),
                 "--out", str(out)]) == 0
    with out.open() as f:
        rows = {(r["deadline_s"], r["strategy"]): r for r in csv.DictReader(f)}
    ratio = float(rows["0.001825", "dpms_up"]["energy_ratio"])
    assert 1.0 - 1.0 / ratio >= 0.20
