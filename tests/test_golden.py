"""Report bytes pinned across refactors.

Each file under `golden/` is the stdout of one command, recorded before the
checks moved out of `cli.py` into the library.  The reports must stay
byte-identical; regenerate a file only for a deliberate change of what the
report says.
"""

from pathlib import Path

import pytest

from multisec import cli

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "enriques_json": ["enriques", "--json"],
    "hypersurface_5_2_json": ["hypersurface", "--d", "5", "--n", "2", "--json"],
    "semigroup_5_2_7_json": ["semigroup", "--d", "5", "--n", "2", "--query", "7", "--json"],
    "verify_construction_json": ["verify-construction", "--json"],
    "witness_1_1_4_json": ["witness", "--a", "1", "--b", "1", "--e", "4", "--json"],
    "verify_construction": ["verify-construction"],
    "enriques": ["enriques"],
    "witness_2_2_json": ["witness", "--a", "2", "--b", "2", "--json"],
    "verify_construction_tall_samples_json": [
        "verify-construction", "--json", "--samples=123457/654321,-9999,3"],
    "verify_construction_negative_samples_json": [
        "verify-construction", "--json", "--samples=-4,17/3"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_bytes_match_golden(name, capsys):
    assert cli.main(COMMANDS[name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.out").read_bytes()
