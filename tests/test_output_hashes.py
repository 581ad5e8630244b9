"""Every output of the CLI and the builders keeps the bits pinned in
``golden/output_hashes.txt``: the lines that ``output_hashes.py`` prints.

A change that moves outputs on purpose regenerates the file:

    PYTHONPATH=src python tests/output_hashes.py > tests/golden/output_hashes.txt
"""

from pathlib import Path

from output_hashes import builder_hashes, cli_hashes

GOLDEN = Path(__file__).resolve().parent / "golden" / "output_hashes.txt"


def test_outputs_keep_their_pinned_hashes():
    pinned = dict(line.rsplit(" ", 1) for line in GOLDEN.read_text().splitlines())
    current = {**cli_hashes(), **builder_hashes()}
    moved = sorted(key for key in pinned.keys() | current.keys()
                   if pinned.get(key) != current.get(key))
    assert not moved, f"{len(moved)} output(s) differ from the pinned hashes: {moved}"
