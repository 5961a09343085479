#!/usr/bin/env python3
"""Repo-local lint rules that clang-tidy cannot express.

Rules
-----
tmp-path    tests must not hardcode /tmp paths: every test runs in its own
            scratch cwd (mh5sched sweeps run seeds concurrently), so fixed
            paths collide across runs. Write relative to the cwd instead.
raw-sleep   src/ must not sleep: wall-clock delays are nondeterministic
            under the cooperative scheduler and slow every test. Modelled
            latencies and injected delays are the sanctioned exceptions.
bare-wait   scheduler-aware src/ files (anything touching CoopLock /
            coop_wait / detail::Scheduler) must not block on a raw
            condition variable: a wait the scheduler cannot see deadlocks
            deterministic runs. Use coop_wait / Scheduler::block, or keep
            the raw wait on the explicitly free-running path.
non-atomic-toggle
            src/ must not declare process-wide toggles as bare scalar
            globals (`bool g_verbose`, `int g_mode`, ...): they are read
            and flipped across rank threads, which is a data race under
            TSan and the deterministic scheduler. Use std::atomic with
            explicit memory order (see h5::par's fan-out threshold), or guard
            the state with a mutex. const/constexpr and thread_local globals
            are exempt — they are not shared mutable state.
raw-step-index
            the stream-facing public headers (src/lowfive/stream/*.hpp)
            must not declare step indices as raw integers (`int step`,
            `std::uint64_t next_step`, ...): a bare integer silently
            mixes step versions with ranks, sizes, and counts. Use the
            typed stream::StepId, whose ordering and "none" sentinel
            carry the protocol semantics; raw integers belong only at
            the wire-serialization boundary inside .cpp files.
tsan-supp   every suppression in scripts/tsan.supp must carry a
            `# matches: <regex>` annotation on the line directly above,
            and the regex must still match something under src/. A
            suppression is a standing claim that specific code is
            TSan-clean for a library-artifact reason; once the code it
            points at is gone, the suppression is a blanket mute that
            would swallow real races in whatever matches the symbol
            next. The annotation keeps each suppression anchored to the
            code that justifies it.

A finding is suppressed by `// lint: allow-<rule>(<reason>)` on the same
line or the line directly above; the reason is mandatory and should say
why this occurrence is sound, not what the code does.

Exit status: 0 clean, 1 findings, 2 usage/IO error.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

SOURCE_GLOBS = ("*.cpp", "*.hpp")

TMP_PATH = re.compile(r'"/tmp')
RAW_SLEEP = re.compile(r"\b(?:sleep_for|sleep_until|usleep|::sleep)\s*\(")
BARE_WAIT = re.compile(r"\b\w*cv\w*\.wait(?:_for|_until)?\s*\(")
SCHED_AWARE = re.compile(r"\bCoopLock\b|\bcoop_wait\b|\bScheduler\b")
# a file-scope scalar with the g_ naming convention, declared without
# std::atomic / a const qualifier / thread_local on the same line
NON_ATOMIC_TOGGLE = re.compile(
    r"^\s*(?:(?:static|inline)\s+)*"
    r"(?:bool|char|short|int|long(?:\s+long)?|unsigned(?:\s+(?:char|short|int|long))?"
    r"|float|double|std::(?:u?int\d+_t|size_t|ptrdiff_t))\s+"
    r"g_\w+"
)
TOGGLE_EXEMPT = re.compile(r"\bconst\b|\bconstexpr\b|\bthread_local\b|\batomic\b")
# an integer-typed declaration whose identifier names a step — the typed
# StepId (step.hpp) is the only sanctioned spelling in public headers
RAW_STEP_INDEX = re.compile(
    r"\b(?:int|long(?:\s+long)?|unsigned(?:\s+(?:char|short|int|long))?"
    r"|std::(?:u?int\d+_t|size_t|ptrdiff_t))\s+"
    r"\w*[Ss]tep\w*\s*[;,)=({\[]"
)
ALLOW = re.compile(r"//\s*lint:\s*allow-([a-z-]+)\(([^)]+)\)")


def iter_sources(root):
    for pattern in SOURCE_GLOBS:
        yield from sorted(root.rglob(pattern))


def allowed(rule, line, prev_line):
    for text in (line, prev_line):
        m = ALLOW.search(text)
        if m and m.group(1) == rule and m.group(2).strip():
            return True
    return False


def match_non_atomic_toggle(code):
    return NON_ATOMIC_TOGGLE.search(code) and not TOGGLE_EXEMPT.search(code)


def scan_file(path, rules):
    findings = []
    text = path.read_text(encoding="utf-8", errors="replace")
    lines = text.splitlines()
    for i, line in enumerate(lines):
        prev = lines[i - 1] if i else ""
        code = line.split("//", 1)[0]  # patterns never fire on comment text
        for rule, matcher in rules:
            if matcher(code) and not allowed(rule, line, prev):
                findings.append((path, i + 1, rule, line.strip()))
    return findings


def audit_tsan_supp():
    """Check scripts/tsan.supp: each suppression needs a live anchor.

    A suppression line (``race:_Sp_atomic``) must be directly preceded by
    ``# matches: <regex>``, and that regex must match at least one source
    line under src/ — proof the code the suppression excuses still
    exists. Returns findings in the same shape as scan_file().
    """
    supp = REPO / "scripts" / "tsan.supp"
    if not supp.exists():
        return []
    findings = []
    src_text = "\n".join(
        p.read_text(encoding="utf-8", errors="replace")
        for p in iter_sources(REPO / "src"))
    lines = supp.read_text(encoding="utf-8", errors="replace").splitlines()
    for i, line in enumerate(lines):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue  # comments and blanks are not suppressions
        prev = lines[i - 1].strip() if i else ""
        m = re.match(r"#\s*matches:\s*(.+)", prev)
        if not m:
            findings.append((supp, i + 1, "tsan-supp",
                             f"{stripped}  (missing '# matches: <regex>' "
                             "annotation on the preceding line)"))
            continue
        pattern = m.group(1).strip()
        try:
            anchored = re.search(re.escape(pattern), src_text) or \
                       re.search(pattern, src_text)
        except re.error as err:
            findings.append((supp, i, "tsan-supp",
                             f"{stripped}  (bad annotation regex: {err})"))
            continue
        if not anchored:
            findings.append((supp, i + 1, "tsan-supp",
                             f"{stripped}  (annotation regex '{pattern}' matches "
                             "nothing under src/ — the code this suppression "
                             "excuses is gone; delete the suppression)"))
    return findings


def main():
    findings = []

    for path in iter_sources(REPO / "tests"):
        findings += scan_file(path, [("tmp-path", TMP_PATH.search)])

    for path in iter_sources(REPO / "src"):
        rules = [("raw-sleep", RAW_SLEEP.search),
                 ("non-atomic-toggle", match_non_atomic_toggle)]
        if SCHED_AWARE.search(path.read_text(encoding="utf-8", errors="replace")):
            rules.append(("bare-wait", BARE_WAIT.search))
        findings += scan_file(path, rules)

    for path in iter_sources(REPO / "src" / "lowfive" / "stream"):
        if path.suffix == ".hpp":
            findings += scan_file(path, [("raw-step-index", RAW_STEP_INDEX.search)])

    findings += audit_tsan_supp()

    for path, lineno, rule, line in findings:
        rel = path.relative_to(REPO)
        print(f"{rel}:{lineno}: [{rule}] {line}")

    if findings:
        print(f"lint.py: {len(findings)} finding(s); suppress a false positive with "
              "'// lint: allow-<rule>(reason)'", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
