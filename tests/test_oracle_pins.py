"""The oracle modes' reports pinned by digest: the sha256 of every
``oracle_report.json`` and ``certificate.json`` that ``--mode oracle`` and
``--mode certificate`` write on a fixed set of inputs.

The inputs are corpus seeds 0 and 3 (ten scenarios each) in both
arithmetics, and the bundled ``scenarios/game_option_2step.json``.  A change
to the Picard oracle, the assembly or the certificate that moves one byte of
one report fails here.  To write the digests file again, on purpose:

    PYTHONPATH=src:tests python tests/test_oracle_pins.py
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

from pdrbsde import cli
from pdrbsde.scenario import generate_corpus

DIGESTS = Path(__file__).with_name("oracle_report_digests.json")
GAME_OPTION = Path(__file__).resolve().parent.parent / "scenarios" / "game_option_2step.json"
CORPUS_SEEDS = (0, 3)
CORPUS_SIZE = 10
# each mode -> the report it writes
REPORTS = {"oracle": "oracle_report.json", "certificate": "certificate.json"}


def _inputs(tmp: Path):
    """``(key, scenario file, extra arguments)`` of every pinned input."""
    for seed in CORPUS_SEEDS:
        for path in generate_corpus(seed, CORPUS_SIZE, tmp / f"corpus_{seed}"):
            for arithmetic in ("rational", "float"):
                yield (f"corpus_{seed}/{path.stem}/{arithmetic}", path,
                       ["--arithmetic", arithmetic])
    yield GAME_OPTION.stem, GAME_OPTION, []


def report_digests() -> dict:
    """The sha256 of each pinned report, keyed by input and by mode."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for key, path, extra in _inputs(Path(tmp)):
            for mode, report in REPORTS.items():
                out = Path(tmp, "out", key, mode)
                assert cli.main(["--mode", mode, "--config", str(path), "--out", str(out),
                                 *extra]) == cli.EXIT_OK, (key, mode)
                digests[f"{key}/{mode}"] = hashlib.sha256((out / report).read_bytes()).hexdigest()
    return digests


def test_reports_match_their_pinned_digests():
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = report_digests()
    assert len(want) == len(REPORTS) * (2 * len(CORPUS_SEEDS) * CORPUS_SIZE + 1)
    assert sorted(got) == sorted(want)
    moved = [key for key in want if got[key] != want[key]]
    assert not moved, moved


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(report_digests(), indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
