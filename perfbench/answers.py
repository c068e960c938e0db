"""Answer checker for the paper programs.

Reads the report `pmaf <file> --domain=<d>` prints (and the traced driver
prints alike) and compares main()'s answer with expected_answers.json,
whose values come from EXPERIMENTS.md's Table 1/2 rows, not from the
solver under test:

* LEIA: the expectation invariants, compared as sets of lines, because
  the numeric backends print the same invariants in different orders.
* BI: the terminating mass, plus the posterior states or marginals the
  row pins down, within tolerance.bi.
* MDP: the greatest expected reward, within tolerance.mdp_relative.
"""

import json
import os
import re

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected_answers.json")

_PROC = re.compile(r"^(\S+)\(\):(.*)$")
_STATE = re.compile(r"^\s*(\{.*\})\s+([0-9.eE+-]+)\s*$")
_REWARD = re.compile(r"greatest expected reward = (\S+)")


def load_expected(path=EXPECTED_PATH):
    with open(path) as f:
        return json.load(f)


def program_list(expected):
    """(domain, name) of every expected program, in table order."""
    return [(domain, name) for domain in ("leia", "bi", "mdp")
            for name in expected[domain]]


def split_procs(report):
    """Maps each procedure of a report to (header tail, body lines)."""
    procs = {}
    current = None
    for line in report.splitlines():
        match = _PROC.match(line)
        if match:
            current = match.group(1)
            procs[current] = (match.group(2).strip(), [])
        elif current is not None and line.startswith("  "):
            procs[current][1].append(line.strip())
    return procs


def normalize_invariant(text):
    return " ".join(text.split())


def check_invariants(name, invariants, expected):
    """Compares LEIA invariants (any order) with the expected set."""
    want = {normalize_invariant(i) for i in expected["leia"][name]}
    got = {normalize_invariant(i) for i in invariants}
    if got == want:
        return True, ""
    missing = sorted(want - got)
    extra = sorted(got - want)
    return False, "leia %s: missing %s, unexpected %s" % (name, missing,
                                                          extra)


def _check_bi(name, body, expected):
    want = expected["bi"][name]
    tol = expected["tolerance"]["bi"]
    states = {}
    mass = None
    for line in body:
        if line.startswith("terminating mass:"):
            mass = float(line.split(":", 1)[1])
            continue
        match = _STATE.match(line)
        if match:
            states[match.group(1)] = float(match.group(2))
    if mass is None:
        return False, "bi %s: no terminating mass" % name
    if abs(mass - want["mass"]) > tol:
        return False, "bi %s: mass %.6f, expected %.6f" % (name, mass,
                                                          want["mass"])
    if "states" in want:
        if set(states) != set(want["states"]):
            return False, "bi %s: posterior support %s, expected %s" % (
                name, sorted(states), sorted(want["states"]))
        for state, prob in want["states"].items():
            if abs(states[state] - prob) > tol:
                return False, "bi %s: P%s = %.6f, expected %.6f" % (
                    name, state, states[state], prob)
    for var, prob in want.get("marginals", {}).items():
        got = sum(p for s, p in states.items() if (var + "=T") in s)
        if abs(got - prob) > tol * max(1, len(states)):
            return False, "bi %s: P[%s] = %.6f, expected %.6f" % (
                name, var, got, prob)
    return True, ""


def _check_mdp(name, header, expected):
    want = expected["mdp"][name]
    match = _REWARD.search(header)
    if not match:
        return False, "mdp %s: no expected reward in %r" % (name, header)
    got = float(match.group(1))
    rel = expected["tolerance"]["mdp_relative"]
    if abs(got - want) > rel * max(1.0, abs(want)):
        return False, "mdp %s: reward %g, expected %g" % (name, got, want)
    return True, ""


def check_report(domain, name, report, expected):
    """Checks one program's report. Returns (ok, reason)."""
    procs = split_procs(report)
    if "main" not in procs:
        return False, "%s %s: no main() in the report" % (domain, name)
    header, body = procs["main"]
    if domain == "leia":
        return check_invariants(name, body, expected)
    if domain == "bi":
        return _check_bi(name, body, expected)
    if domain == "mdp":
        return _check_mdp(name, header, expected)
    return False, "unknown domain %s" % domain
