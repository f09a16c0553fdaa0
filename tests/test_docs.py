"""The documentation stays consistent with the code (tools/check_docs)."""

import importlib.util
import os

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SPEC = importlib.util.spec_from_file_location(
    "check_docs", os.path.join(REPO_ROOT, "tools", "check_docs.py"))
check_docs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_docs)

#: Every page docs/README.md must index.
DOC_PAGES = ("OBSERVABILITY.md", "CAMPAIGNS.md", "FAULTS.md",
             "FUZZING.md", "PERFORMANCE.md", "PAPER_MAP.md",
             "SERVICE.md", "SESSION_DYNAMICS.md", "POPULATION.md",
             "ARCHITECTURE.md")


def test_all_markdown_clean():
    """Links resolve and every documented subcommand exists."""
    assert check_docs.main() == 0


def test_docs_index_lists_every_page():
    index_path = os.path.join(REPO_ROOT, "docs", "README.md")
    assert os.path.exists(index_path), "docs/README.md index missing"
    index = open(index_path, encoding="utf-8").read()
    for page in DOC_PAGES:
        assert page in index, f"docs/README.md does not index {page}"
        assert os.path.exists(os.path.join(REPO_ROOT, "docs", page)), \
            f"indexed page docs/{page} missing"


def test_top_level_readme_links_docs_index():
    readme = open(os.path.join(REPO_ROOT, "README.md"),
                  encoding="utf-8").read()
    assert "docs/README.md" in readme
    assert "docs/OBSERVABILITY.md" in readme


def test_cli_subcommand_introspection():
    known = check_docs.cli_subcommands()
    assert {"info", "experiment", "campaign", "report", "fuzz",
            "fetch", "evade", "trace", "serve"} <= set(known)
    assert {"--tenant", "--spool", "--default-workers"} <= known["serve"]
    assert "--resume" in known["campaign"]


def test_every_package_is_indexed():
    packages = check_docs.repro_packages()
    assert {"netsim", "middlebox", "runner", "obs", "serve",
            "population", "websites"} <= set(packages)
    assert check_docs.check_package_index() == []


def test_package_index_catches_missing_package(monkeypatch):
    monkeypatch.setattr(check_docs, "repro_packages",
                        lambda: ["netsim", "imaginarypkg"])
    errors = check_docs.check_package_index()
    assert len(errors) == 1
    assert "repro.imaginarypkg" in errors[0]


def test_documented_env_vars_exist_in_source():
    known = check_docs.source_env_vars()
    assert {"REPRO_CAMPAIGN_WORKER_KILL"} <= known
    # A doc mentioning a var the source doesn't define is flagged,
    # with its line number.
    errors = check_docs.check_env_vars(
        os.path.join(REPO_ROOT, "docs", "FAKE.md"),
        "line one\nset REPRO_NO_SUCH_KNOB=1\n", known)
    assert errors == ["docs/FAKE.md:2: documented env var "
                      "REPRO_NO_SUCH_KNOB does not appear in src/"]


def test_documented_repro_names_resolve():
    assert check_docs.resolves("repro.netsim.engine.Network")
    assert check_docs.resolves("repro.core.groundtruth.verify")
    # A made-up name is flagged, in a code span or a fenced block, with
    # its line number; prose and real names are not.
    errors = check_docs.check_repro_names(
        os.path.join(REPO_ROOT, "docs", "FAKE.md"),
        "`repro.netsim.engine.Network` is real\n"
        "`repro.netsim.engine.NoSuchThing` is not\n"
        "prose may say repro.nowhere\n"
        "```python\nfrom repro.core.nosuchmodule import thing\n```\n")
    assert errors == [
        "docs/FAKE.md:5: documented name `repro.core.nosuchmodule` is "
        "neither a module nor an attribute of one",
        "docs/FAKE.md:2: documented name `repro.netsim.engine.NoSuchThing`"
        " is neither a module nor an attribute of one",
    ]
    # Moved to the tests, the population reference no longer resolves.
    assert not check_docs.resolves(
        "repro.population.reference.simulate_reference")


def test_catalogued_names_are_string_literals_in_source():
    literals = check_docs.source_string_literals()
    assert {"netsim_events_total", "express_plan_hits_total",
            "send"} <= literals
    # A made-up metric in a table's first column is flagged with its
    # line number; later columns and prose are not checked.
    errors = check_docs.check_catalog(
        os.path.join(REPO_ROOT, "docs", "FAKE.md"),
        "| metric | type | meaning |\n"
        "|---|---|---|\n"
        "| `netsim_events_total` | counter | `not_a_metric` |\n"
        "| `netsim_teleports_total` / `netsim_fib_hits_total` | counter |"
        " made up |\n"
        "`prose_metric_total` is not a table row\n", literals)
    assert errors == ["docs/FAKE.md:4: catalogued name "
                      "`netsim_teleports_total` is no string literal "
                      "in src/"]


def test_readme_table2_is_what_its_command_prints(capsys):
    """README quotes `repro experiment table2 --scale 1.0`'s output
    (format_table pads its last column, so trailing spaces differ)."""
    from repro.cli import main

    readme = open(os.path.join(REPO_ROOT, "README.md"),
                  encoding="utf-8").read()
    command = "python -m repro experiment table2 --scale 1.0"
    _, found, rest = readme.partition(f"```bash\n{command}\n```\n\n```\n")
    assert found, f"README has no `{command}` block"
    quoted = rest.partition("```")[0].splitlines()
    assert main(command.split()[3:]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert [line.rstrip() for line in printed] == quoted
