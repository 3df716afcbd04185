#!/usr/bin/env python3
"""ody_lint: Odyssey-specific lint rules the compiler cannot enforce.

The simulation's determinism and the paper-reproduction experiments rest on
conventions that are invisible to the type system: no wall-clock time inside
the simulated subsystems, no randomness outside the seeded generator, no
exact floating-point comparison of resource levels, no stray stdout in
library code, and uniform header guards / include order.  This tool enforces
them at the text level, with an annotated-suppression syntax:

    some_call();  // ody-lint: allow(rule-name)

suppresses a violation on that line (or, on a line of its own, on the next
line), and

    // ody-lint: allow-file(rule-name)

suppresses a rule for the whole file.  The escape-capture rule additionally
honors a purpose-built annotation,

    sink([&x] { ... });  // ody_lint: owned-capture

(same line or the line before, either spelling of the tool name), which
asserts the by-reference captures outlive every invocation of the callable.
Run from the repository root:

    python3 tools/ody_lint/ody_lint.py            # lint the tree
    python3 tools/ody_lint/ody_lint.py --list-rules

Exit status is 0 when clean, 1 when violations were found, 2 on bad usage.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import re
import sys

# --- Rule registry ----------------------------------------------------------

RULES = {
    "wall-clock": (
        "wall-clock time source inside a simulated subsystem; all time must "
        "flow from Simulation::now()"
    ),
    "unseeded-random": (
        "randomness outside src/sim/random.h; all streams must derive from "
        "the trial's seed (src/mobility is stricter still: no <random> "
        "distributions and no literal-seeded generators — models take "
        "explicit SplitMix64-derived seeds)"
    ),
    "float-equal": (
        "exact floating-point comparison; use a tolerance or integer units"
    ),
    "no-cout": (
        "stdout output in library code; return data or use the metrics layer"
    ),
    "header-guard": (
        "header guard must be the uppercased project-relative path"
    ),
    "include-order": (
        "own header first, then sorted blocks of root-relative includes"
    ),
    "trace-static-name": (
        "ODY_TRACE_* event names must be string literals; the recorder "
        "stores the pointer, so a built string would dangle and allocate"
    ),
    "harness-no-raw-thread": (
        "raw std::thread in src/ outside src/harness/worker_pool, or a "
        "detached thread anywhere; concurrency flows through RunIndexedTasks"
    ),
    "harness-no-global-state": (
        "static non-const or mutable state in src/harness/; campaign trials "
        "are shared-nothing, so the engine may hold no cross-trial state"
    ),
    "test-no-wallclock": (
        "wall-clock reads or real sleeping in tests/; tests advance virtual "
        "time with Simulation::RunUntil, never by waiting"
    ),
    "escape-capture": (
        "by-reference lambda capture handed to a callback sink (a call that "
        "stores the callable beyond the call); capture by value/move, or "
        "annotate '// ody_lint: owned-capture' after proving the referents "
        "outlive every invocation"
    ),
    "fleet-pod-message": (
        "fleet wire payloads must stay POD and deterministic: no raw "
        "pointers, references, or owning containers in a *Message struct "
        "(each must static_assert trivial copyability), and src/fleet may "
        "use no wall-clock calls or literal-seeded generators — every "
        "stream derives from the explicit trial seed via SplitMix64"
    ),
    "strategy-isolation": (
        "a bandwidth strategy reaching around its interface: wall-clock "
        "reads (time flows in as Time arguments or Simulation::now()), "
        "estimator-internal includes (ewma/sliding_max/usage_meter — "
        "consume estimation via supply_model.h or "
        "connection_estimator.h), or writes into the observation logs "
        "(RecordThroughput/RecordRoundTrip belong to the RPC layer; "
        "strategies read estimates, never feed them)"
    ),
    "one-rig": (
        "a single-client stack built by hand: OdysseyClient and Viceroy are "
        "constructed, and StrategyRegistry::...Create( is called, only by "
        "ExperimentRig (src/metrics/experiment.cc) and the fleet node "
        "builder (src/fleet/fleet_node.cc); describe the rig with a RigSpec"
    ),
    "one-arm": (
        "an oracle hook wired by hand: set_step_observer, set_tie_observer, "
        "set_delivery_observer and set_window_observer are called only by "
        "OracleSet::Arm (src/check/oracles.cc); arm the oracles with "
        "Arm(clock, tap)"
    ),
}

# Directories whose sources are scanned at all.
SCAN_DIRS = ("src", "tests", "examples")
# Library code: rules about runtime behaviour apply here only.
LIBRARY_DIRS = ("src",)
# The simulated subsystems: anything here taking wall-clock time breaks
# virtual-time determinism.
SIMULATED_DIRS = ("src/sim", "src/net", "src/estimator")
# The one blessed home for entropy.
RANDOM_HOME = "src/sim/random.h"
# The mobility models carry a stronger contract than the rest of src/: a
# track must be a pure function of the explicit (seed, params) arguments, so
# even the blessed Rng is off-limits when seeded with a literal (every trial
# would replay the same track regardless of its seed), and <random>
# distributions are banned outright (their sampling algorithms are
# implementation-defined, which breaks bit-identical tracks across
# platforms).
MOBILITY_DIRS = ("src/mobility",)
# The one blessed home for threads (see worker_pool.h's contract).
THREAD_HOME = ("src/harness/worker_pool.h", "src/harness/worker_pool.cc")
# The campaign engine: jobs-invariance requires it to stay shared-nothing.
HARNESS_DIRS = ("src/harness",)
# Tests: any dependence on real time makes a test flaky and unreproducible.
TEST_DIRS = ("tests",)

SOURCE_EXTENSIONS = (".cc", ".h", ".cpp", ".hpp")

_ALLOW_RE = re.compile(r"//\s*ody-lint:\s*allow\(([^)]*)\)")
_ALLOW_FILE_RE = re.compile(r"//\s*ody-lint:\s*allow-file\(([^)]*)\)")


@dataclasses.dataclass
class Violation:
    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclasses.dataclass
class SourceFile:
    """A parsed source file: raw lines, comment/string-stripped lines, and
    the suppression sets harvested from its comments."""

    relpath: str
    lines: list[str]
    code_lines: list[str]  # comments and string literals blanked out
    line_allows: dict[int, set[str]]  # 1-based line -> suppressed rules
    file_allows: set[str]

    def suppressed(self, rule: str, line: int) -> bool:
        return rule in self.file_allows or rule in self.line_allows.get(line, set())


def _strip_comments_and_strings(text: str) -> str:
    """Blanks comments, string literals, and char literals, preserving the
    line structure so offsets keep meaning."""
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
            elif c == '"':
                state = "string"
                out.append(" ")
                i += 1
            elif c == "'":
                state = "char"
                out.append(" ")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        else:  # string or char
            terminator = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == terminator:
                state = "code"
                out.append(" ")
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
    return "".join(out)


def parse_file(root: str, relpath: str) -> SourceFile:
    with open(os.path.join(root, relpath), encoding="utf-8") as f:
        text = f.read()
    lines = text.splitlines()
    code_lines = _strip_comments_and_strings(text).splitlines()

    line_allows: dict[int, set[str]] = {}
    file_allows: set[str] = set()
    for idx, line in enumerate(lines, start=1):
        m = _ALLOW_FILE_RE.search(line)
        if m:
            file_allows.update(r.strip() for r in m.group(1).split(","))
        m = _ALLOW_RE.search(line)
        if m:
            rules = {r.strip() for r in m.group(1).split(",")}
            stripped = line.strip()
            if stripped.startswith("//"):
                # A standalone annotation line covers the next line.
                line_allows.setdefault(idx + 1, set()).update(rules)
            else:
                line_allows.setdefault(idx, set()).update(rules)
    return SourceFile(relpath, lines, code_lines, line_allows, file_allows)


def _in_dirs(relpath: str, dirs: tuple[str, ...]) -> bool:
    return any(relpath == d or relpath.startswith(d + "/") for d in dirs)


# --- Content rules ----------------------------------------------------------

_WALL_CLOCK_RE = re.compile(
    r"\b(system_clock|steady_clock|high_resolution_clock|gettimeofday|"
    r"localtime|gmtime|strftime|mktime|clock\s*\(\s*\)|time\s*\()"
)

_RANDOM_RE = re.compile(
    r"\b(rand\s*\(|srand\s*\(|random_device\b|default_random_engine\b|"
    r"mt19937(?:_64)?\b|minstd_rand0?\b|ranlux(?:24|48)(?:_base)?\b|knuth_b\b)"
)

# The extra patterns applied under MOBILITY_DIRS: any <random> distribution
# template, and an Rng/SplitMix64 constructed from an integer literal.
_MOBILITY_RANDOM_RE = re.compile(
    r"(\b\w+_distribution\s*<"
    r"|\b(?:Rng|SplitMix64)(?:\s+\w+)?\s*[({]\s*\d[0-9'a-fA-FxX]*[uUlL]*\s*[)}])"
)

_COUT_RE = re.compile(r"(std::cout|\bprintf\s*\(|\bfprintf\s*\(\s*stdout\b|\bputs\s*\()")

_FLOAT_LITERAL = r"[-+]?(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?[fFlL]?"
_FLOAT_EQ_RE = re.compile(
    rf"(?:(?<![<>=!+\-*/&|^])(==|!=)\s*{_FLOAT_LITERAL})|(?:{_FLOAT_LITERAL}\s*(==|!=)(?!=))"
)


def check_wall_clock(sf: SourceFile) -> list[Violation]:
    if not _in_dirs(sf.relpath, SIMULATED_DIRS):
        return []
    out = []
    for idx, line in enumerate(sf.code_lines, start=1):
        m = _WALL_CLOCK_RE.search(line)
        if m:
            out.append(Violation(sf.relpath, idx, "wall-clock",
                                 f"wall-clock call '{m.group(0).strip()}' in a simulated "
                                 "subsystem; use Simulation::now()"))
    return out


def check_unseeded_random(sf: SourceFile) -> list[Violation]:
    if not _in_dirs(sf.relpath, LIBRARY_DIRS) or sf.relpath == RANDOM_HOME:
        return []
    out = []
    mobility = _in_dirs(sf.relpath, MOBILITY_DIRS)
    for idx, line in enumerate(sf.code_lines, start=1):
        m = _RANDOM_RE.search(line)
        if m:
            out.append(Violation(sf.relpath, idx, "unseeded-random",
                                 f"'{m.group(0).strip()}' bypasses the seeded Rng in "
                                 "src/sim/random.h"))
            continue
        if mobility:
            m = _MOBILITY_RANDOM_RE.search(line)
            if m:
                out.append(Violation(sf.relpath, idx, "unseeded-random",
                                     f"'{m.group(0).strip()}' in a mobility model; a track "
                                     "must be a pure function of the explicit trial seed — "
                                     "derive every stream via SplitMix64 from the (seed, "
                                     "params) arguments, never from a literal seed or a "
                                     "<random> distribution"))
    return out


def check_float_equal(sf: SourceFile) -> list[Violation]:
    if not _in_dirs(sf.relpath, LIBRARY_DIRS):
        return []
    out = []
    for idx, line in enumerate(sf.code_lines, start=1):
        if "==" not in line and "!=" not in line:
            continue
        if _FLOAT_EQ_RE.search(line):
            out.append(Violation(sf.relpath, idx, "float-equal",
                                 "exact comparison against a floating-point literal; "
                                 "bandwidth/fidelity values need a tolerance"))
    return out


def check_no_cout(sf: SourceFile) -> list[Violation]:
    if not _in_dirs(sf.relpath, LIBRARY_DIRS):
        return []
    out = []
    for idx, line in enumerate(sf.code_lines, start=1):
        m = _COUT_RE.search(line)
        if m:
            out.append(Violation(sf.relpath, idx, "no-cout",
                                 f"'{m.group(0).strip()}' writes to stdout from library "
                                 "code"))
    return out


# The recording macros whose third argument is the event name.
_TRACE_MACRO_RE = re.compile(
    r"\bODY_TRACE_(?:INSTANT[12]?|COUNTER|BEGIN[12]?|END1?)\s*\("
)
# One or more concatenated string literals, nothing else.
_STRING_LITERAL_RE = re.compile(r'^\s*(?:"(?:[^"\\]|\\.)*"\s*)+$')


def _split_top_level_args(text: str, start: int) -> list[tuple[int, int]]:
    """Returns (begin, end) offsets of the top-level arguments of the call
    whose opening parenthesis is at |start|; empty on unbalanced input."""
    depth = 0
    args = []
    arg_begin = start + 1
    for i in range(start, len(text)):
        c = text[i]
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
            if depth == 0:
                args.append((arg_begin, i))
                return args
        elif c == "," and depth == 1:
            args.append((arg_begin, i))
            arg_begin = i + 1
    return []


def check_trace_static_name(sf: SourceFile) -> list[Violation]:
    # Calls are located in the stripped text (so commented-out examples do
    # not match and string contents cannot confuse the argument splitter),
    # but the name argument itself is read from the raw text, where its
    # literal survives.
    code_text = "\n".join(sf.code_lines)
    raw_text = "\n".join(sf.lines)
    out = []
    for m in _TRACE_MACRO_RE.finditer(code_text):
        line_no = code_text.count("\n", 0, m.start()) + 1
        line_begin = code_text.rfind("\n", 0, m.start()) + 1
        if code_text[line_begin:m.start()].lstrip().startswith("#"):
            continue  # the macro definitions themselves
        args = _split_top_level_args(code_text, m.end() - 1)
        if len(args) < 3:
            continue
        name_begin, name_end = args[2]
        if not _STRING_LITERAL_RE.match(raw_text[name_begin:name_end]):
            got = " ".join(raw_text[name_begin:name_end].split())
            out.append(Violation(sf.relpath, line_no, "trace-static-name",
                                 f"trace event name '{got}' is not a string literal; "
                                 "the recorder keeps the pointer, not a copy"))
    return out


_THREAD_RE = re.compile(r"\bstd::(?:thread|jthread)\b|\bpthread_create\b")
_DETACH_RE = re.compile(r"\.\s*detach\s*\(")


def check_harness_thread(sf: SourceFile) -> list[Violation]:
    thread_restricted = _in_dirs(sf.relpath, LIBRARY_DIRS) and sf.relpath not in THREAD_HOME
    out = []
    for idx, line in enumerate(sf.code_lines, start=1):
        m = _THREAD_RE.search(line)
        if thread_restricted and m:
            out.append(Violation(sf.relpath, idx, "harness-no-raw-thread",
                                 f"'{m.group(0)}' outside src/harness/worker_pool; "
                                 "run concurrent work through RunIndexedTasks"))
        # A detached thread outlives whatever spawned it, which no part of
        # this codebase can ever need: flagged everywhere, thread home too.
        if _DETACH_RE.search(line):
            out.append(Violation(sf.relpath, idx, "harness-no-raw-thread",
                                 "detached thread; every thread must be joined by "
                                 "the RunIndexedTasks call that created it"))
    return out


# `static` not immediately qualified as immutable.  \b does not match before
# an underscore, so static_cast/static_assert never trip this.
_MUTABLE_STATIC_RE = re.compile(r"\bstatic\b(?!\s+(?:const|constexpr)\b)")
_MUTABLE_MEMBER_RE = re.compile(r"\bmutable\b")


def check_harness_global_state(sf: SourceFile) -> list[Violation]:
    if not _in_dirs(sf.relpath, HARNESS_DIRS):
        return []
    out = []
    for idx, line in enumerate(sf.code_lines, start=1):
        if _MUTABLE_STATIC_RE.search(line):
            out.append(Violation(sf.relpath, idx, "harness-no-global-state",
                                 "non-const static in the campaign engine; state that "
                                 "survives a trial breaks shared-nothing execution"))
        if _MUTABLE_MEMBER_RE.search(line):
            out.append(Violation(sf.relpath, idx, "harness-no-global-state",
                                 "mutable member in the campaign engine; trials must "
                                 "not communicate through hidden writable state"))
    return out


# A test that reads a real clock or really sleeps is flaky by construction
# and defeats the virtual-time determinism every suite here relies on.
_TEST_WALL_CLOCK_RE = re.compile(
    r"\b(system_clock|steady_clock|high_resolution_clock|sleep_for|"
    r"sleep_until|usleep|nanosleep)\b"
)


def check_test_no_wallclock(sf: SourceFile) -> list[Violation]:
    if not _in_dirs(sf.relpath, TEST_DIRS):
        return []
    out = []
    for idx, line in enumerate(sf.code_lines, start=1):
        m = _TEST_WALL_CLOCK_RE.search(line)
        if m:
            out.append(Violation(sf.relpath, idx, "test-no-wallclock",
                                 f"'{m.group(0)}' in a test; advance virtual time with "
                                 "Simulation::RunUntil instead of waiting on the real "
                                 "clock"))
    return out


# --- fleet-pod-message ------------------------------------------------------
#
# Fleet messages cross node boundaries by value on the virtual-time bus
# (src/fleet/fleet_dispatcher.h): a payload smuggling a pointer would alias
# one node's state from another (and chase freed memory on replay), and any
# wall-clock read or unseeded entropy in the fleet layer would break the
# bit-reproducibility the tier_fleet j1-vs-j4 gate proves.  So every struct
# named *Message under src/fleet must hold only POD scalars and carry a
# trivially-copyable static_assert, and fleet sources must seed every
# stream from the explicit trial seed (mirroring the mobility contract:
# literal-seeded Rng/SplitMix64 replays the same stream for every trial).

FLEET_DIRS = ("src/fleet",)

_FLEET_MESSAGE_STRUCT_RE = re.compile(r"\bstruct\s+(\w*Message)\b")
_FLEET_NONPOD_MEMBER_RE = re.compile(
    r"std::(?:string|vector|map|set|deque|list|function|unique_ptr|"
    r"shared_ptr|weak_ptr|optional|variant|any)\b"
)
_FLEET_POINTER_MEMBER_RE = re.compile(r"[*&]\s*\w+\s*(?:=[^;]*)?;")
_FLEET_LITERAL_SEED_RE = re.compile(
    r"\b(?:Rng|SplitMix64)(?:\s+\w+)?\s*[({]\s*\d[0-9'a-fA-FxX]*[uUlL]*\s*[)}]"
)


def check_fleet_pod_message(sf: SourceFile) -> list[Violation]:
    if not _in_dirs(sf.relpath, FLEET_DIRS):
        return []
    out = []
    for idx, line in enumerate(sf.code_lines, start=1):
        m = _WALL_CLOCK_RE.search(line)
        if m:
            out.append(Violation(sf.relpath, idx, "fleet-pod-message",
                                 f"wall-clock call '{m.group(0).strip()}' in the fleet "
                                 "layer; fleet runs must be bit-reproducible, so all "
                                 "time flows from Simulation::now()"))
        m = _FLEET_LITERAL_SEED_RE.search(line)
        if m:
            out.append(Violation(sf.relpath, idx, "fleet-pod-message",
                                 f"'{m.group(0).strip()}' seeds a stream from a "
                                 "literal; derive it from the explicit trial seed "
                                 "via SplitMix64"))

    text = "\n".join(sf.code_lines)
    for m in _FLEET_MESSAGE_STRUCT_RE.finditer(text):
        name = m.group(1)
        brace = text.find("{", m.end())
        if brace < 0:
            continue
        depth = 0
        end = -1
        for j in range(brace, len(text)):
            if text[j] == "{":
                depth += 1
            elif text[j] == "}":
                depth -= 1
                if depth == 0:
                    end = j
                    break
        if end < 0:
            continue
        struct_line = text.count("\n", 0, brace) + 1
        for offset, body_line in enumerate(text[brace:end].splitlines()):
            line_no = struct_line + offset
            if _FLEET_NONPOD_MEMBER_RE.search(body_line):
                out.append(Violation(sf.relpath, line_no, "fleet-pod-message",
                                     f"non-POD member in {name}; fleet payloads are "
                                     "copied by value into delivery events and must "
                                     "hold plain scalars only"))
            elif _FLEET_POINTER_MEMBER_RE.search(body_line):
                out.append(Violation(sf.relpath, line_no, "fleet-pod-message",
                                     f"raw pointer or reference member in {name}; a "
                                     "payload crossing nodes must not carry another "
                                     "node's addresses"))
        if not re.search(rf"static_assert\s*\(\s*std::is_trivially_copyable"
                         rf"(?:_v)?\s*<\s*{re.escape(name)}\s*>", text):
            out.append(Violation(sf.relpath, struct_line, "fleet-pod-message",
                                 f"{name} lacks a static_assert(std::is_trivially_"
                                 f"copyable_v<{name}>) beside its definition"))
    return out


# --- strategy-isolation -----------------------------------------------------
#
# The strategy zoo's conformance kit proves behavioral properties (bit-
# identical reruns, degenerate-input equivalence) that hold only if every
# strategy is a pure function of what the interface hands it: Time arguments
# and the estimation surface.  A strategy reading a real clock, reaching
# into the estimator's internal machinery, or feeding observations back into
# the logs it is supposed to consume would pass the interface's type checks
# while silently breaking determinism or double-counting traffic.

STRATEGY_DIRS = ("src/strategies",)

# The estimation machinery strategies may NOT include directly; the blessed
# surfaces are supply_model.h and connection_estimator.h.
_STRATEGY_INTERNAL_INCLUDE_RE = re.compile(
    r'#\s*include\s+"src/estimator/(?:ewma|sliding_max|usage_meter)\.h"'
)

# Observation writes: the RPC layer records, strategies only read.
_STRATEGY_MUTATION_RE = re.compile(r"\b(RecordThroughput|RecordRoundTrip)\s*\(")


def check_strategy_isolation(sf: SourceFile) -> list[Violation]:
    if not _in_dirs(sf.relpath, STRATEGY_DIRS):
        return []
    out = []
    # Includes are string literals, blanked in code_lines: scan raw lines.
    for idx, line in enumerate(sf.lines, start=1):
        m = _STRATEGY_INTERNAL_INCLUDE_RE.search(line)
        if m:
            out.append(Violation(sf.relpath, idx, "strategy-isolation",
                                 f"'{m.group(0).strip()}' reaches into the estimator's "
                                 "internals; strategies consume estimation through "
                                 "src/estimator/supply_model.h or "
                                 "src/estimator/connection_estimator.h"))
    for idx, line in enumerate(sf.code_lines, start=1):
        m = _WALL_CLOCK_RE.search(line)
        if m:
            out.append(Violation(sf.relpath, idx, "strategy-isolation",
                                 f"wall-clock call '{m.group(0).strip()}' in a strategy; "
                                 "time flows in as Time arguments or Simulation::now()"))
        m = _STRATEGY_MUTATION_RE.search(line)
        if m:
            out.append(Violation(sf.relpath, idx, "strategy-isolation",
                                 f"'{m.group(1)}' mutates an observation log from a "
                                 "strategy; recording belongs to the RPC layer, "
                                 "strategies read estimates only"))
    return out


# --- one-rig ----------------------------------------------------------------
#
# Every single-client stack is built by ExperimentRig from a RigSpec, and
# every fleet node by Fleet::AddNode.  The build order there sets both the
# random-draw order and the same-timestamp tie order the goldens depend on,
# so a second hand-built stack is a second, silently diverging order.
# OdysseyClient's own header holds the one Viceroy member.

ONE_RIG_HOMES = ("src/metrics/experiment.cc", "src/fleet/fleet_node.cc",
                 "src/core/odyssey_client.h")

_ONE_RIG_CONSTRUCT_RE = re.compile(
    r"(?:\b(?:make_unique|make_shared)\s*<\s*(OdysseyClient|Viceroy)\s*>"
    r"|\bnew\s+(OdysseyClient|Viceroy)\b"
    r"|\b(OdysseyClient|Viceroy)\s+\w+\s*[({;])"
)
_ONE_RIG_CREATE_RE = re.compile(r"\bStrategyRegistry::\w+\s*\(\s*\)\s*\.\s*Create\s*\(")


def check_one_rig(sf: SourceFile) -> list[Violation]:
    if not _in_dirs(sf.relpath, LIBRARY_DIRS) or sf.relpath in ONE_RIG_HOMES:
        return []
    out = []
    for idx, line in enumerate(sf.code_lines, start=1):
        m = _ONE_RIG_CONSTRUCT_RE.search(line)
        if m:
            kind = next(g for g in m.groups() if g)
            out.append(Violation(sf.relpath, idx, "one-rig",
                                 f"{kind} constructed outside the rig builders; "
                                 "build an ExperimentRig from a RigSpec"))
        if _ONE_RIG_CREATE_RE.search(line):
            out.append(Violation(sf.relpath, idx, "one-rig",
                                 "builds a strategy outside the rig builders; name it "
                                 "in RigSpec::strategy"))
    return out


# --- one-arm ----------------------------------------------------------------
#
# How a run is audited (which observers, the audit cadence, the drain, and
# detaching before the final audit) is decided in one place, OracleSet::Arm
# and Finish.  A hook wired anywhere else is a second, silently diverging
# decision.  The headers that define the setters are exempt; tests/ is out
# of scope (unit tests drive the hooks directly).

ONE_ARM_HOMES = ("src/check/oracles.cc", "src/sim/simulation.h", "src/sim/event_queue.h",
                 "src/core/upcall.h", "src/core/viceroy.h")
ONE_ARM_DIRS = ("src", "examples")

_ONE_ARM_RE = re.compile(r"\b(set_(?:step|tie|delivery|window)_observer)\s*\(")


def check_one_arm(sf: SourceFile) -> list[Violation]:
    if not _in_dirs(sf.relpath, ONE_ARM_DIRS) or sf.relpath in ONE_ARM_HOMES:
        return []
    out = []
    for idx, line in enumerate(sf.code_lines, start=1):
        m = _ONE_ARM_RE.search(line)
        if m:
            out.append(Violation(sf.relpath, idx, "one-arm",
                                 f"{m.group(1)} called outside OracleSet::Arm; arm the "
                                 "oracles with OracleSet::Arm(clock, tap)"))
    return out


# --- escape-capture (cross-file, two passes) --------------------------------
#
# The two lifetime bugs this repo has actually shipped (the OdysseyClient
# teardown use-after-free and a bench Schedule() capturing a dead stack
# frame) had the same shape: a lambda capturing by reference handed to a
# call that STORES the callable and invokes it later, after the captured
# frame is gone.  Pass one scans the whole tree for such "callback sinks" —
# functions that take a std::function-ish parameter and keep it (event
# scheduling, observer setters, constructors that stash the callable in a
# member) — plus std::function-typed members assignable at use sites.  Pass
# two flags every by-reference capture that flows into one, unless the site
# carries an '// ody_lint: owned-capture' annotation asserting the referents
# outlive every invocation ([this]-only captures are clean: an object
# handing out callbacks into itself manages that lifetime by construction).

# Callable-typed parameters these sinks always store (event queues hold the
# callback until the event fires; Tsop completion handlers ride the RPC).
_SEED_SINKS = frozenset({"Post", "PostAt", "Schedule", "ScheduleAt", "Tsop"})

# Callable types that are classes rather than std::function aliases, so no
# alias harvest finds them: the event queue's move-only EventQueue::Callback.
# Seeded like an alias, so a parameter of that type marks a sink candidate.
_SEED_CALLBACK_TYPES = frozenset({"Callback"})

# Observer/handler installers: name alone marks the parameter as outliving
# the call, whether or not the definition is visible to the scan.
_SETTER_SINK_RE = re.compile(r"^(?:set_\w+|Set[A-Z]\w*)$")

_FUNCTION_ALIAS_RE = re.compile(r"\busing\s+(\w+)\s*=\s*std::function\s*<")

# A named function (or constructor) followed by its parameter list.
_DECL_OR_CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")

# Lambda introducer at the start of an argument; group 1 is the capture list.
_LAMBDA_ARG_RE = re.compile(r"^\s*\[([^\]]*)\]")

_OWNED_CAPTURE_RE = re.compile(r"//\s*ody[-_]lint:\s*owned-capture\b")

# escape-capture scope: library and example code.  tests/ is exempt — the
# whole test suite runs under ASan on every push, so a dangling capture there
# is caught dynamically; examples run rarely and unsanitized (the shipped
# bench bug survived precisely because its binary was one such), and library
# code should never rely on the sanitizer in the first place.
_ESCAPE_DIRS = ("src", "examples")


@dataclasses.dataclass
class AnalysisContext:
    """Cross-file facts pass one harvests for pass two."""

    sink_names: set[str]
    function_members: set[str]  # std::function-typed member/field names
    aliases: set[str]  # names aliased to std::function<...>


def _callback_param_names(args_text: list[str], aliases: set[str]) -> list[str]:
    """Returns the names of parameters whose type is std::function or one of
    the collected aliases; empty when the parameter list has none."""
    names = []
    for arg in args_text:
        arg = arg.strip()
        if not arg:
            continue
        is_callback = "std::function" in arg
        if not is_callback:
            head = arg.rsplit(None, 1)[0] if len(arg.split()) > 1 else ""
            for alias in aliases:
                if re.search(rf"\b{re.escape(alias)}\b", head):
                    is_callback = True
                    break
        if not is_callback:
            continue
        m = re.search(r"(\w+)\s*$", arg)
        if m:
            names.append(m.group(1))
    return names


def _body_region(text: str, close_paren: int) -> str:
    """Returns the ctor-init list and brace-matched body following a
    parameter list that ends at |close_paren|, or '' for a bare declaration."""
    i = close_paren + 1
    n = len(text)
    # Skip qualifiers (const, noexcept, override, trailing return) and the
    # ctor-init list up to the opening brace; a ';' first means no body.
    depth = 0
    body_start = -1
    for j in range(i, min(n, i + 4000)):
        c = text[j]
        if c == ";" and depth == 0:
            return text[i:j]  # ctor-init-only storage is impossible here
        if c in "([":
            depth += 1
        elif c in ")]":
            depth -= 1
        elif c == "{" and depth == 0:
            body_start = j
            break
    if body_start < 0:
        return text[i:min(n, i + 4000)]
    depth = 0
    for j in range(body_start, n):
        c = text[j]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return text[i:j + 1]
    return text[i:]


def _stores_param(region: str, param: str) -> bool:
    p = re.escape(param)
    patterns = (
        rf"std::move\s*\(\s*{p}\s*\)",          # moved = transferred somewhere
        rf"(?<![=!<>])=\s*{p}\b",               # member = param
        rf"\w+_\s*\(\s*{p}\b",                  # ctor-init member_(param)
        rf"\b(?:push_back|emplace_back|emplace|insert)\s*\(\s*{p}\b",
    )
    return any(re.search(pattern, region) for pattern in patterns)


def build_context(root: str, relpaths: list[str]) -> AnalysisContext:
    """Pass one: collects callback sinks, function-typed members, and
    std::function aliases across |relpaths|."""
    ctx = AnalysisContext(set(_SEED_SINKS), set(), set(_SEED_CALLBACK_TYPES))
    texts: list[str] = []
    for relpath in relpaths:
        if not relpath.endswith(SOURCE_EXTENSIONS):
            continue
        try:
            sf = parse_file(root, relpath)
        except (OSError, UnicodeDecodeError):
            continue
        texts.append("\n".join(sf.code_lines))
        for line in sf.lines:
            m = _FUNCTION_ALIAS_RE.search(line)
            if m:
                ctx.aliases.add(m.group(1))

    member_re = None  # built after every alias is known
    for text in texts:
        if member_re is None:
            alias_alt = "|".join(re.escape(a) for a in sorted(ctx.aliases))
            type_alt = r"std::function\s*<[^;\n]*>" + (rf"|(?:{alias_alt})" if alias_alt else "")
            member_re = re.compile(rf"^\s*(?:const\s+)?(?:{type_alt})\s+(\w+)\s*(?:=[^;=]*)?;",
                                   re.MULTILINE)
        for m in member_re.finditer(text):
            ctx.function_members.add(m.group(1))
        for m in _DECL_OR_CALL_RE.finditer(text):
            name = m.group(1)
            if name in ctx.sink_names:
                continue
            args = _split_top_level_args(text, m.end() - 1)
            if not args:
                continue
            params = _callback_param_names([text[b:e] for b, e in args], ctx.aliases)
            if not params:
                continue
            if _SETTER_SINK_RE.match(name):
                ctx.sink_names.add(name)
                continue
            region = _body_region(text, args[-1][1])
            if any(_stores_param(region, p) for p in params):
                ctx.sink_names.add(name)
    return ctx


def _single_file_context(sf: SourceFile) -> AnalysisContext:
    ctx = AnalysisContext(set(_SEED_SINKS), set(), set(_SEED_CALLBACK_TYPES))
    text = "\n".join(sf.code_lines)
    for line in sf.lines:
        m = _FUNCTION_ALIAS_RE.search(line)
        if m:
            ctx.aliases.add(m.group(1))
    alias_alt = "|".join(re.escape(a) for a in sorted(ctx.aliases))
    type_alt = r"std::function\s*<[^;\n]*>" + (rf"|(?:{alias_alt})" if alias_alt else "")
    member_re = re.compile(rf"^\s*(?:const\s+)?(?:{type_alt})\s+(\w+)\s*(?:=[^;=]*)?;",
                           re.MULTILINE)
    for m in member_re.finditer(text):
        ctx.function_members.add(m.group(1))
    for m in _DECL_OR_CALL_RE.finditer(text):
        name = m.group(1)
        if name in ctx.sink_names:
            continue
        args = _split_top_level_args(text, m.end() - 1)
        if not args:
            continue
        params = _callback_param_names([text[b:e] for b, e in args], ctx.aliases)
        if not params:
            continue
        if _SETTER_SINK_RE.match(name):
            ctx.sink_names.add(name)
        elif any(_stores_param(_body_region(text, args[-1][1]), p) for p in params):
            ctx.sink_names.add(name)
    return ctx


def _owned_capture_lines(sf: SourceFile) -> set[int]:
    return {idx for idx, line in enumerate(sf.lines, start=1)
            if _OWNED_CAPTURE_RE.search(line)}


def check_escape_capture(sf: SourceFile, ctx: AnalysisContext) -> list[Violation]:
    if not _in_dirs(sf.relpath, _ESCAPE_DIRS):
        return []
    text = "\n".join(sf.code_lines)
    owned = _owned_capture_lines(sf)
    out = []

    def line_of(offset: int) -> int:
        return text.count("\n", 0, offset) + 1

    def annotated(*line_numbers: int) -> bool:
        return any(line in owned or line - 1 in owned for line in line_numbers)

    def flag_lambda(arg_begin: int, call_line: int, sink: str) -> None:
        m = _LAMBDA_ARG_RE.match(text[arg_begin:arg_begin + 400])
        if not m or "&" not in m.group(1):
            return
        lambda_line = line_of(arg_begin + m.group(0).find("["))
        if annotated(lambda_line, call_line):
            return
        captures = " ".join(m.group(1).split())
        out.append(Violation(
            sf.relpath, lambda_line, "escape-capture",
            f"lambda captures by reference ('[{captures}]') at callback sink "
            f"'{sink}', which stores the callable beyond the call; a captured "
            "stack frame may be gone when it runs — capture by value, or "
            "annotate '// ody_lint: owned-capture' if the referents provably "
            "outlive every invocation"))

    # Sink call sites: foo(... [&...] ...), obj.foo(...), and constructor
    # declarations Type name(... [&...] ...).
    sink_alt = "|".join(re.escape(s) for s in sorted(ctx.sink_names))
    if sink_alt:
        call_re = re.compile(rf"\b({sink_alt})(?:\s+\w+)?\s*([({{])")
        for m in call_re.finditer(text):
            name = m.group(1)
            open_pos = m.end() - 1
            # `Type name(` is a declaration form only for capitalized sinks
            # (constructors); `sink ident(` for a lowercase sink is not a call.
            if m.group(0).split(name, 1)[1].lstrip()[0] not in "({" and not name[0].isupper():
                continue
            for arg_begin, _ in _split_top_level_args(text, open_pos):
                flag_lambda(arg_begin, line_of(m.start()), name)

    # Assignments into std::function-typed fields of another object:
    # d.handler = [&] {...}.  Dotted access only — initializing a LOCAL
    # std::function with a by-ref lambda is fine until something stores it,
    # and the store site is where the sink rules above fire.
    if ctx.function_members:
        member_alt = "|".join(re.escape(f) for f in sorted(ctx.function_members))
        assign_re = re.compile(rf"(?:\.|->)\s*({member_alt})\s*=\s*(?=\[)")
        for m in assign_re.finditer(text):
            flag_lambda(m.end(), line_of(m.start()), m.group(1) + " =")
    return out


# --- Structural rules -------------------------------------------------------

def expected_guard(relpath: str) -> str:
    return re.sub(r"[^A-Za-z0-9]", "_", relpath).upper() + "_"


def check_header_guard(sf: SourceFile) -> list[Violation]:
    if not sf.relpath.endswith((".h", ".hpp")):
        return []
    want = expected_guard(sf.relpath)
    ifndef_line = 0
    got = None
    for idx, line in enumerate(sf.code_lines, start=1):
        m = re.match(r"\s*#\s*ifndef\s+(\w+)", line)
        if m:
            ifndef_line = idx
            got = m.group(1)
            break
        if line.strip():
            break
    if got is None:
        return [Violation(sf.relpath, 1, "header-guard",
                          f"missing header guard; expected #ifndef {want}")]
    if got != want:
        return [Violation(sf.relpath, ifndef_line, "header-guard",
                          f"guard is {got}; expected {want}")]
    # The guard's #define must follow immediately.
    for idx in range(ifndef_line, len(sf.code_lines)):
        line = sf.code_lines[idx]
        if not line.strip():
            continue
        m = re.match(r"\s*#\s*define\s+(\w+)", line)
        if not m or m.group(1) != want:
            return [Violation(sf.relpath, idx + 1, "header-guard",
                              f"#ifndef {want} must be followed by #define {want}")]
        break
    return []


_INCLUDE_RE = re.compile(r'\s*#\s*include\s+(["<])([^">]+)[">]')

# Quoted includes must be root-relative into one of these trees.
_PROJECT_PREFIXES = ("src/", "tests/", "examples/", "tools/")


def check_include_order(sf: SourceFile) -> list[Violation]:
    out = []
    includes: list[tuple[int, str, str]] = []  # (line, kind, path)
    # Raw lines, not code_lines: a quoted include path is a string literal,
    # which the stripper blanks out.
    for idx, line in enumerate(sf.lines, start=1):
        m = _INCLUDE_RE.match(line)
        if m:
            includes.append((idx, m.group(1), m.group(2)))

    own_header = None
    if sf.relpath.endswith((".cc", ".cpp")):
        stem = re.sub(r"\.(cc|cpp)$", "", sf.relpath)
        own_header = stem + ".h"

    for idx, kind, path in includes:
        if kind == '"' and not path.startswith(_PROJECT_PREFIXES):
            out.append(Violation(sf.relpath, idx, "include-order",
                                 f'"{path}" is not root-relative; include project '
                                 'headers by full path from the repository root'))

    if own_header and includes:
        quoted = [(idx, p) for idx, k, p in includes if k == '"']
        if any(p == own_header for _, p in quoted):
            first_idx, first_path = includes[0][0], includes[0][2]
            if first_path != own_header:
                out.append(Violation(sf.relpath, first_idx, "include-order",
                                     f'own header "{own_header}" must be the first '
                                     "include"))

    # Within each contiguous run of includes of the same kind, paths must be
    # sorted (the own-header line, exempt by convention, starts its own run).
    prev_line = -2
    prev_kind = ""
    prev_path = ""
    for idx, kind, path in includes:
        contiguous = idx == prev_line + 1 and kind == prev_kind
        if contiguous and own_header and prev_path == own_header:
            contiguous = False
        if contiguous and path < prev_path:
            out.append(Violation(sf.relpath, idx, "include-order",
                                 f'"{path}" breaks sorted order within its include '
                                 "block"))
        prev_line, prev_kind, prev_path = idx, kind, path
    return out


CHECKS = [
    check_wall_clock,
    check_unseeded_random,
    check_float_equal,
    check_no_cout,
    check_trace_static_name,
    check_harness_thread,
    check_harness_global_state,
    check_test_no_wallclock,
    check_fleet_pod_message,
    check_strategy_isolation,
    check_one_rig,
    check_one_arm,
    check_header_guard,
    check_include_order,
]

# --- Driver -----------------------------------------------------------------

def collect_files(root: str, paths: list[str]) -> list[str]:
    if paths:
        rels = []
        for p in paths:
            rel = os.path.relpath(os.path.abspath(p), root)
            rels.append(rel.replace(os.sep, "/"))
        return rels
    out = []
    for scan_dir in SCAN_DIRS:
        base = os.path.join(root, scan_dir)
        if not os.path.isdir(base):
            continue
        for dirpath, _, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTENSIONS):
                    rel = os.path.relpath(os.path.join(dirpath, name), root)
                    out.append(rel.replace(os.sep, "/"))
    return sorted(out)


def lint_file(root: str, relpath: str,
              context: AnalysisContext | None = None) -> list[Violation]:
    """Lints one file.  |context| carries the cross-file sink facts from
    build_context; when None (single-file invocations, the self-tests) the
    escape-capture pass sees only this file's own declarations."""
    sf = parse_file(root, relpath)
    violations = []
    for check in CHECKS:
        for v in check(sf):
            if not sf.suppressed(v.rule, v.line):
                violations.append(v)
    ctx = context if context is not None else _single_file_context(sf)
    for v in check_escape_capture(sf, ctx):
        if not sf.suppressed(v.rule, v.line):
            violations.append(v)
    return violations


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".", help="repository root to lint")
    parser.add_argument("--list-rules", action="store_true", help="print rules and exit")
    parser.add_argument("paths", nargs="*", help="specific files (default: scan the tree)")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, description in sorted(RULES.items()):
            print(f"{rule}: {description}")
        return 0

    root = os.path.abspath(args.root)
    if not os.path.isdir(root):
        print(f"ody_lint: no such directory: {root}", file=sys.stderr)
        return 2

    relpaths = collect_files(root, args.paths)
    # Pass one always sees the whole tree, even when linting a file subset:
    # sink signatures live wherever they live.
    context = build_context(root, collect_files(root, []))
    violations: list[Violation] = []
    for relpath in relpaths:
        try:
            violations.extend(lint_file(root, relpath, context))
        except OSError as err:
            print(f"ody_lint: {err}", file=sys.stderr)
            return 2

    for v in violations:
        print(v)
    if violations:
        print(f"ody_lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
