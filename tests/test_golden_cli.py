"""Byte-for-byte replay of recorded CLI reports on the bundled models.

`golden_cli.txt` holds one block per command: a header line
``### exit=<code> <argv...>`` followed by the command's exact stdout.  The
command set is every report the benchmark's CLI batch runs (analyze,
polymology, qsr, sector per Mori generator, correlator series, verify --all)
with the on-disk cache off.  A refactor that changes any report, anchors
included, fails here.
"""

import os
import re

from qsheaf.cli import run

ROOT = os.path.join(os.path.dirname(__file__), "..")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden_cli.txt")


def test_golden_cli_reports(capsys):
    with open(GOLDEN, "rb") as fh:
        recorded = fh.read().decode("utf-8")
    replayed = []
    for header in re.findall(r"^### exit=\d+ (.*)$", recorded, re.M):
        argv = header.split(" ")
        got = run([argv[0], os.path.join(ROOT, argv[1])] + argv[2:])
        replayed.append(f"### exit={got} {' '.join(argv)}\n{capsys.readouterr().out}")
    assert "".join(replayed) == recorded
