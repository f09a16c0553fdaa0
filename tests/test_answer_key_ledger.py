"""Where the measurement layer still reads its answer key.

The measurement code should rediscover censorship by probing, never
read the simulated world's configuration back (ROADMAP item 3).  Until
it does, every such read is counted here: an AST scan of
``repro.experiments``, ``repro.core.measure`` and ``repro.population``
counts, per module, the reads (``Load`` context) of the configuration
attributes and profile names below, and the counts must equal the
committed :data:`LEDGER`.  A new read fails the test until the ledger
names it with a reason; a removed one fails it until its entry goes,
so the ledger only ever shrinks on purpose.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Packages (relative to ``src/repro``) whose modules are scanned.
SCANNED = ("experiments", "core/measure", "population")

#: Attributes that hand a measurement the configured answer.
ANSWER_ATTRIBUTES = {"blocklists", "blocklist", "poisoned_resolver_ips",
                     "path_to", "box_isp", "censors_http"}

#: Names that hand it an ISP's configured profile.
ANSWER_NAMES = {"PROFILES", "profile_for", "isp_profile"}

#: Modules exempt from the scan, with the reason.
EXEMPT = {
    "core/measure/fastprobe.py": "the express layer walks the configured "
    "paths and boxes by design: it is the fast ground-truth oracle the "
    "probing measurements are validated against",
}

#: Module -> (answer-key reads, the ROADMAP item that removes them).
LEDGER = {
    "experiments/common.py": (
        1, "item 3: censored_sites and controlled_target take their "
        "candidates from the ISP's master list, world.blocklists.http"),
    "experiments/dns_mechanism.py": (
        2, "item 3: resolvers come from poisoned_resolver_ips() and the "
        "traced domain from each resolver's configured blocklist, not "
        "from the unit's own resolver scan"),
    "experiments/idiosyncrasies.py": (
        1, "item 3: the stale-blocklist count takes the dead sites from "
        "the master list"),
    "experiments/session_dynamics.py": (
        4, "item 3: the mechanism column prints PROFILES[isp].mechanism, "
        "and build_scenario copies the ISP's box family from PROFILES "
        "and profile_for"),
    "core/measure/collateral.py": (
        3, "item 3: Table 3 credits each censored site to verdict.box_isp, "
        "and the covert-reset fallback walks path_to and asks "
        "censors_http"),
    "population/engine.py": (
        2, "item 6: enforcement rates come from the ISP's profile "
        "(isp_profile, censors_http), not from measurement"),
}


def answer_key_reads(tree):
    """Line numbers of the answer-key reads in one module's AST."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if node.attr in ANSWER_ATTRIBUTES:
                lines.append(node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in ANSWER_NAMES:
                lines.append(node.lineno)
    return sorted(lines)


def scan():
    """Module -> line numbers of its answer-key reads (non-exempt
    modules with at least one read)."""
    found = {}
    for package in SCANNED:
        for path in sorted((SRC / package).rglob("*.py")):
            module = path.relative_to(SRC).as_posix()
            if module in EXEMPT:
                continue
            lines = answer_key_reads(ast.parse(path.read_text()))
            if lines:
                found[module] = lines
    return found


def test_answer_key_reads_match_the_ledger():
    found = scan()
    problems = [
        f"{module}: {len(found.get(module, ()))} answer-key read(s) at "
        f"lines {found.get(module, [])}, ledger says {count} ({reason})"
        for module, (count, reason) in LEDGER.items()
        if len(found.get(module, ())) != count
    ] + [
        f"{module}: {len(lines)} answer-key read(s) at lines {lines}, "
        f"not in the ledger"
        for module, lines in found.items() if module not in LEDGER
    ]
    assert not problems, "\n".join(problems)


def test_ledger_and_exemptions_name_real_modules():
    for module in (*LEDGER, *EXEMPT):
        assert (SRC / module).is_file(), module


def test_scan_counts_reads_not_writes():
    tree = ast.parse(
        "domains = sorted(world.blocklists.http['idea'])\n"
        "mechanism = PROFILES[isp].mechanism\n"
        "config.blocklist = frozenset()\n"
        "PROFILES = {}\n")
    assert answer_key_reads(tree) == [1, 2]
