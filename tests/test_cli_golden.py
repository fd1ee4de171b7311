"""Golden CLI outputs on every shipped fixture.

Each file in fixtures/ goes through every subcommand that accepts its kind,
with default arguments, once plain and once with --json; the two commands
that take no document run once each.  Stdout and the exit code must equal
the ones recorded in tests/golden/cli_fixtures.json.  That file was recorded
from the program before the basis refactor that introduced it, so it is a
reference that does not depend on the code under test.

Record it again, only when an output is meant to change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_fixtures.json"

# subcommands per document kind; product takes the document twice
COMMANDS = {
    "lts": (["check"], ["center"], ["embed"], ["quotient"], ["product", "{doc}"]),
    "symmetric_lie": (["check"], ["center"]),
    "pair": (["check"], ["center"], ["pair-exp"], ["geodesic"], ["period"], ["loop-demo"]),
}
NO_DOCUMENT = (["gallery"], ["quotient-demo"])


def cases(name: str) -> list[list[str]]:
    """Command lines for one fixture, or for the document-free commands when
    name is None, with paths relative to the repository root."""
    if name is None:
        commands = NO_DOCUMENT
    else:
        doc = f"fixtures/{name}"
        kind = json.loads((FIXTURES / name).read_text())["kind"]
        commands = [[c[0], doc] + [a.format(doc=doc) for a in c[1:]] for c in COMMANDS[kind]]
    return [argv + extra for argv in commands for extra in ([], ["--json"])]


def run(argv: list[str]) -> dict:
    from triplekit import cli
    out = io.StringIO()
    abs_argv = [str(ROOT / a) if a.startswith("fixtures/") else a for a in argv]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(abs_argv)
    return {"exit": code, "stdout": out.getvalue()}


NAMES = sorted(p.name for p in FIXTURES.glob("*.json"))


def test_golden_file_covers_every_case():
    recorded = json.loads(GOLDEN.read_text())
    want = {" ".join(argv) for name in NAMES + [None] for argv in cases(name)}
    assert set(recorded) == want


@pytest.mark.parametrize("name", NAMES + [None])
def test_cli_output_matches_golden(name):
    recorded = json.loads(GOLDEN.read_text())
    for argv in cases(name):
        key = " ".join(argv)
        assert run(argv) == recorded[key], key


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    table = {" ".join(argv): run(argv) for name in NAMES + [None] for argv in cases(name)}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} cases to {GOLDEN}")
