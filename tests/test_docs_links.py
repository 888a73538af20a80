"""The docs-link checker runs clean as part of tier-1.

This is what keeps README/docs honest: a reference to a file that was
renamed away, or to a CLI subcommand that never existed, fails the
suite — not just the ``make docs-check`` target.
"""

from __future__ import annotations

import importlib.util
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs_links", REPO_ROOT / "tools" / "check_docs_links.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docs_references_resolve(capsys):
    checker = _load_checker()
    assert checker.main() == 0, capsys.readouterr().out


def test_readme_library_quickstart_runs(capsys):
    """The README's "library equivalent" block executes as written."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(
        r"The library equivalent:\s*```python\n(.*?)```", readme, re.DOTALL
    )
    assert match, "README lost its library quick-start block"
    exec(compile(match.group(1), "README.md", "exec"), {})
    assert "ClassifiedMessage" in capsys.readouterr().out


def test_checker_flags_broken_references(tmp_path):
    checker = _load_checker()
    doc = tmp_path / "bad.md"
    doc.write_text(
        "See [missing](no/such/file.md) and `src/repro/nonexistent.py`.\n"
        "Run `python -m repro figure9` or `python -m repro figure1 --bogus 3`.\n",
        encoding="utf-8",
    )
    problems = checker.check_file(doc, checker.cli_tables())
    assert len(problems) == 4, problems


def test_checker_accepts_known_cli_usage(tmp_path):
    checker = _load_checker()
    doc = tmp_path / "good.md"
    doc.write_text(
        "`python -m repro figure2 figure3 --scale paper --seed 3 --workers 4`\n"
        "`python -m repro all --out results/`\n"
        "`python -m repro list-scenarios`\n"
        "`python -m repro run-scenario focused-vs-roni --set pool_size=200 --seed 3`\n"
        "`python -m repro replicate dictionary-vs-none --seeds 8 --workers 4 --out r.json`\n",
        encoding="utf-8",
    )
    assert checker.check_file(doc, checker.cli_tables()) == []


def test_checker_tracks_the_profile_flag(tmp_path):
    """`--profile` is derived from the live run-scenario parser, so docs
    may use it — and a typo'd variant still fails."""
    checker = _load_checker()
    doc = tmp_path / "profile.md"
    doc.write_text(
        "`python -m repro run-scenario stream-usenet-burst --set ticks=10 --profile`\n",
        encoding="utf-8",
    )
    assert checker.check_file(doc, checker.cli_tables()) == []
    bad = tmp_path / "typo.md"
    bad.write_text(
        "`python -m repro run-scenario stream-usenet-burst --profiled`\n",
        encoding="utf-8",
    )
    assert len(checker.check_file(bad, checker.cli_tables())) == 1


def test_checker_keeps_the_two_cli_grammars_apart(tmp_path):
    """A scenario name or --set outside run-scenario is still invalid,
    and run-scenario only accepts registered scenario names."""
    checker = _load_checker()
    doc = tmp_path / "mixed.md"
    doc.write_text(
        "`python -m repro focused-vs-roni`\n"               # scenario name w/o command
        "`python -m repro figure1 --set folds=2`\n"          # --set on artifact grammar
        "`python -m repro run-scenario no-such-scenario`\n"  # unregistered name
        "`python -m repro run-scenario figure1-dictionary --bogus 1`\n"
        "`python -m repro replicate figure9`\n"              # unregistered name
        "`python -m repro replicate dictionary-vs-none --folds 2`\n",  # unknown flag
        encoding="utf-8",
    )
    problems = checker.check_file(doc, checker.cli_tables())
    assert len(problems) == 6, problems
