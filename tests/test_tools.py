"""The two answer gates of a refactor, run as child processes of the checkout.

tools/predicate_digest.py digests every predicate's answers, and the
collapses with their replays, on 1,000 seeded complexes, and
tools/cli_snapshot.py records every CLI run over the fixture corpus.  A change that alters an answer on purpose updates
the pinned values here and says so in CHANGES.md.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

DIGEST = [
    "1000 complexes x 3 fields: sha256 "
    "8025b2cf9d9be110951b4a3510c29a930a5f8c4328a08091f644fcbc15491b4b",
    "746 partitions x 3 fields of liaison reports: sha256 "
    "61c32cc38b4dcea72ba58669eda50970254b26ef4eac8303a82e09239964d41a",
    "1000 complexes of field-free predicates: sha256 "
    "4023c41af4cf6a1e8feba19ef1cf3628e50b348b3a91fb694213cb928aca3bf5",
    "2946 facet graphs with connectivity reports: sha256 "
    "347236bd360d256521d4b1445398fa1d82fa0f297e9de3a8616c69daa7ae8f97",
    "2484 removal experiments: sha256 "
    "207c7de3b04d2f3f44b72877ebb73f9185abb8070a3743946f63ef12c8ba41a2",
    "1000 complexes x 2 forbidden sets of collapses: sha256 "
    "eee2d2a6324a8f4cdbda745ef98fe6baf78893e0f1950ee22f915d5ee3eb41c9",
]
SNAPSHOT = "8a0f5b1393a1a217299e63b1561091a05dadf3ab6f40ba6f149a44c9a83e9f4f"


def _tool(name, *args, **env):
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / name), *args], cwd=ROOT,
                          env={**os.environ, **env}, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_predicate_digest_is_unchanged():
    assert _tool("predicate_digest.py").splitlines() == DIGEST


def test_cli_snapshot_is_unchanged_at_any_terminal_width(tmp_path):
    # argparse wraps the usage errors to the terminal width; the tool fixes it
    out = tmp_path / "snapshot.txt"
    assert _tool("cli_snapshot.py", str(out), COLUMNS="40") == f"{out}: 1938 runs\n"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SNAPSHOT
