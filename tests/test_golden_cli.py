"""Byte-for-byte replay of recorded CLI reports on the bundled models.

`golden_cli.txt` holds one block per command: a header line
``### exit=<code> <argv...>`` followed by the command's exact stdout.  The
command set is every report the benchmark's CLI batch runs (analyze,
polymology, qsr, sector per Mori generator, correlator series, verify --all)
with the on-disk cache off.  A refactor that changes any report, anchors
included, fails here.

The JSON reports of the same commands would fill about 115 KB, so
`golden_cli_json.sha256` keeps one line per command instead: the sha256 of
its ``--format json`` stdout, ``exit=<code>`` and the argv.

Every bundled model has Picard rank <= 2, so `golden_cli_rank3.txt` adds the
same replay for three models under `tests/data/` (not under `models/`, which
the benchmark's CLI batch globs) whose correlators run on the Groebner
anchor ring: tangent (P^1)^3 at c1 <= 6, a deformed (P^1)^3 with fixed
rational epsilon at c1 <= 4 and dP3, the hexagon fan, at c1 <= 1.  Each model
also replays its analyze, polymology, qsr and ``verify --all --grid 2``
reports.  dP3's Mori cone is not simplicial, so its generator numbering (and
every Mori coordinate in its reports) rests on the rule that generators
equal to some beta_K come first.
"""

import hashlib
import os
import re

from qsheaf.cli import run

ROOT = os.path.join(os.path.dirname(__file__), "..")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden_cli.txt")
GOLDEN_RANK3 = os.path.join(os.path.dirname(__file__), "golden_cli_rank3.txt")
GOLDEN_JSON = os.path.join(os.path.dirname(__file__), "golden_cli_json.sha256")


def _replay_text(path, capsys):
    with open(path, "rb") as fh:
        recorded = fh.read().decode("utf-8")
    replayed = []
    for header in re.findall(r"^### exit=\d+ (.*)$", recorded, re.M):
        argv = header.split(" ")
        got = run([argv[0], os.path.join(ROOT, argv[1])] + argv[2:])
        replayed.append(f"### exit={got} {' '.join(argv)}\n{capsys.readouterr().out}")
    assert "".join(replayed) == recorded


def test_golden_cli_reports(capsys):
    _replay_text(GOLDEN, capsys)


def test_golden_cli_rank3_reports(capsys):
    _replay_text(GOLDEN_RANK3, capsys)


def test_golden_cli_json_digests(capsys):
    with open(GOLDEN_JSON, "rb") as fh:
        recorded = fh.read().decode("utf-8")
    replayed = []
    for header in re.findall(r"^[0-9a-f]{64} exit=\d+ (.*)$", recorded, re.M):
        argv = header.split(" ")
        got = run([argv[0], os.path.join(ROOT, argv[1])] + argv[2:] + ["--format", "json"])
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        replayed.append(f"{digest} exit={got} {header}\n")
    assert len(replayed) == len(recorded.splitlines())
    assert "".join(replayed) == recorded
