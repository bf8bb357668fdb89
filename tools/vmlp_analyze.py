#!/usr/bin/env python3
"""vmlp_analyze — AST-level static analysis for the v-MLP simulator.

Checks cross-cutting determinism/concurrency invariants that neither the
compiler nor the regex lint (tools/vmlp_lint.py) can express, because they
need scope structure and variable types, not line patterns:

  [host-clock]       Wall-clock reads (std::chrono::{system,steady,
                     high_resolution}_clock::now, time(), clock(),
                     gettimeofday, ...) anywhere in the simulation core
                     (src/{sim,sched,mlp,cluster,app,loadgen}) outside the
                     whitelisted host-profiling scopes (class PolicyScope and
                     src/obs/). Host time leaking into a decision breaks the
                     single-seed byte-stability every figure rests on.

  [rng-by-value]     A vmlp::Rng passed or captured by value silently forks
                     nothing: both copies replay the same substream
                     (duplicated draws, broken seed-purity — cf.
                     determinism_check claims 3-6). Flags by-value Rng
                     parameters (sinks must take Rng&&), by-copy lambda
                     captures of an Rng variable, and Rng-to-Rng copy
                     initialization from an lvalue.

  [unordered-escape] Iteration over an unordered container whose loop body
                     lets the iteration order escape: float accumulation
                     (+=/-=/*= into a float/double, or into an element of a
                     float/double vector — the topology summary-index fold
                     pattern), event scheduling (schedule_at/_after/_periodic,
                     reschedule), or an export
                     sink (stream <<, write_*/export_* calls). Supersedes
                     vmlp_lint's regex [unordered-iter] rule and its
                     `lint: unordered-ok` waivers: iteration with no escaping
                     sink is fine and needs no annotation.

  [obs-readback]     Telemetry is write-only from the simulation core
                     (DESIGN.md §10): reading collector state back
                     (counter_value, gauge_value, snapshot, registry, events,
                     policy_slices, ...) from src/{sim,sched,mlp,cluster,app,
                     loadgen} means a metric could feed a decision. The
                     handle-struct accessors (engine()/driver()/...) are
                     write-path plumbing, not state reads. The sanctioned read paths —
                     exp/ merge+report, examples, tools — are out of scope.

  [engine-lock]      Mutex acquisition inside the sim::Engine hot path: any
                     lock in src/sim/, or inside a lambda passed to an engine
                     schedule_* call anywhere in the core. The engine is
                     single-threaded by design; a lock there is either dead
                     weight on the hottest path or a symptom of cross-thread
                     sharing that belongs at the trial level.

  [shard-shared-state] Mutation of shared state inside a shard-worker lambda
                     (the callable handed to ThreadPool::parallel_for or
                     parallel_for_dynamic) that is not provably shard-safe.
                     Concurrent lanes race on anything captured by reference
                     and written without discipline. Sanctioned: body-local
                     variables, lambda parameters, element writes indexed by
                     a lambda parameter (the pre-sized slot-per-trial idiom),
                     VMLP_GUARDED_BY-annotated members, and ShardArena
                     variables (lane-owned memory, DESIGN.md §12).

Frontends. The analyzer is driven by compile_commands.json and prefers
libclang (clang.cindex) when importable: the AST supplies canonical types
for parameters, members, and locals, so typedef'd containers or
unqualified spellings cannot dodge a rule. When libclang is absent the
built-in structural frontend — a comment/string-aware lexer with scope
tracking and module-level declaration harvesting — evaluates the same rule
engine on heuristically inferred types. `--require-libclang` exits 77
instead of falling back (used by the ctest fixture variant so it skips,
not fails, on machines without libclang).

Baseline workflow. Accepted pre-existing findings live in
tools/vmlp_analyze_baseline.txt as `rule|path|normalized-source-line`
entries (line-number free, so unrelated edits don't invalidate them). A
finding matching a baseline entry is reported but does not fail the run;
a finding not in the baseline exits 1. `--update-baseline` rewrites the
file from the current findings. Site-level waivers use
`// analyze: allow(<rule>): <reason>` on the line or the comment block
above it.

Usage:
  tools/vmlp_analyze.py [--root DIR] [-p BUILD_DIR] [--baseline FILE]
                        [--frontend auto|libclang|internal]
                        [--require-libclang] [--update-baseline]
                        [--report FILE] [files...]

Exit: 0 clean (modulo baseline), 1 new findings, 2 usage error,
77 --require-libclang and libclang unavailable.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

# --------------------------------------------------------------------------
# lexical helpers


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals (incl. raw strings),
    preserving line structure."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            chunk = text[i : j + 2]
            out.append("".join("\n" if ch == "\n" else " " for ch in chunk))
            i = j + 2
        elif c == "R" and nxt == '"' and (i == 0 or not (text[i - 1].isalnum() or text[i - 1] == "_")):
            # Raw string literal R"delim( ... )delim": nothing inside is code.
            m = re.match(r'R"([^\s()\\]{0,16})\(', text[i:])
            if m:
                closer = ")" + m.group(1) + '"'
                j = text.find(closer, i + m.end())
                j = n if j == -1 else j + len(closer)
                chunk = text[i:j]
                out.append('""' + "".join("\n" if ch == "\n" else " " for ch in chunk[2:]))
                i = j
            else:
                out.append(c)
                i += 1
        elif c in ('"', "'"):
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote:
                    break
                j += 1
            out.append(quote + " " * (min(j, n - 1) - i - 1) + quote)
            i = min(j, n - 1) + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text: str, idx: int) -> int:
    return text.count("\n", 0, idx) + 1


# --------------------------------------------------------------------------
# structural frontend: scope tree

LAMBDA_HEAD = re.compile(
    r"\[[^\[\]]*\]\s*(?:\([^()]*\))?\s*(?:mutable\b\s*)?(?:noexcept\b[^{]*)?(?:->[^{]*)?$"
)
CLASS_HEAD = re.compile(r"\b(?:class|struct)\s+(?:VMLP_\w+\s*\(\s*\"[^\"]*\"\s*\)\s*)?([A-Za-z_]\w*)[^;{]*$")
ENUM_HEAD = re.compile(r"\benum\b")
NAMESPACE_HEAD = re.compile(r"\bnamespace\s+([A-Za-z_][\w:]*)?\s*$")
FUNC_HEAD = re.compile(
    r"([~A-Za-z_][\w:~]*(?:<[^<>]*>)?)\s*\([^;{}]*\)\s*"
    r"(?:const\b\s*|noexcept\b[^{]*|override\b\s*|final\b\s*|->\s*[^{]*|:\s*[^{]*)*$"
)
CONTROL_KEYWORDS = {"if", "for", "while", "switch", "catch", "do", "else", "try"}
ENGINE_SCHEDULE_CALL = re.compile(r"\b(?:schedule_at|schedule_after|schedule_periodic)\s*\(")
POOL_DISPATCH_CALL = re.compile(r"\bparallel_for(?:_dynamic)?\s*\(")
LAMBDA_PARAMS = re.compile(r"\]\s*\(([^()]*)\)")
PARAM_NAME = re.compile(r"([A-Za-z_]\w*)\s*(?:,|$)")


class Scope:
    __slots__ = ("kind", "name", "begin", "end", "line", "parent", "engine_callback",
                 "pool_worker", "params")

    def __init__(self, kind: str, name: str, begin: int, line: int, parent):
        self.kind = kind  # namespace|class|function|lambda|control|block
        self.name = name
        self.begin = begin  # offset of '{'
        self.end = -1  # offset of matching '}'
        self.line = line
        self.parent = parent
        self.engine_callback = False
        # Lambda passed to ThreadPool::parallel_for{,_dynamic}: its body runs
        # concurrently on pool workers (the shard-shared-state rule's scope).
        self.pool_worker = False
        self.params = ()  # lambda parameter names (shard/index args)

    def chain(self):
        s = self
        while s is not None:
            yield s
            s = s.parent

    def in_engine_callback(self) -> bool:
        return any(s.engine_callback for s in self.chain())

    def enclosing_names(self) -> set:
        names = set()
        for s in self.chain():
            if s.name:
                names.add(s.name)
                # Qualified function names contribute each component
                # (SelfOrganizing::admit_stage -> both parts).
                for part in s.name.split("::"):
                    if part:
                        names.add(part)
        return names


def classify_header(header: str, lambda_engine: bool):
    """Classify the text preceding a '{'.
    Returns (kind, name, engine_cb, pool_worker, params)."""
    h = header.strip()
    if not h:
        return "block", "", False, False, ()
    m = LAMBDA_HEAD.search(h)
    if m and "[" in h:
        # Lambda body; is it an argument of an engine schedule_* call (or a
        # thread-pool dispatch) still open at the point the capture list
        # starts?
        prefix = h[: m.start() + 1]
        engine = bool(ENGINE_SCHEDULE_CALL.search(prefix)) or lambda_engine
        pool = bool(POOL_DISPATCH_CALL.search(prefix))
        params = ()
        pm = LAMBDA_PARAMS.search(h, m.start())
        if pm:
            params = tuple(PARAM_NAME.findall(pm.group(1)))
        return "lambda", "", engine, pool, params
    if ENUM_HEAD.search(h):
        return "block", "", False, False, ()
    m = NAMESPACE_HEAD.search(h)
    if m:
        return "namespace", m.group(1) or "", False, False, ()
    m = CLASS_HEAD.search(h)
    if m:
        return "class", m.group(1), False, False, ()
    m = FUNC_HEAD.search(h)
    if m:
        name = m.group(1)
        base = name.split("::")[-1].lstrip("~")
        if base in CONTROL_KEYWORDS:
            return "control", "", False, False, ()
        return "function", name, False, False, ()
    first = re.match(r"([A-Za-z_]\w*)", h)
    if first and first.group(1) in CONTROL_KEYWORDS:
        return "control", "", False, False, ()
    return "block", "", False, False, ()


def build_scopes(clean: str):
    """Parse the cleaned text into a scope tree; returns the list of all
    scopes (root-less: top level has parent None)."""
    scopes = []
    stack = []
    header_start = 0
    paren_depth = 0
    i, n = 0, len(clean)
    while i < n:
        c = clean[i]
        if c == "(":
            paren_depth += 1
        elif c == ")":
            paren_depth = max(0, paren_depth - 1)
        elif c == ";" and paren_depth == 0:
            header_start = i + 1
        elif c == "{":
            header = clean[header_start:i]
            parent = stack[-1] if stack else None
            parent_engine = parent.engine_callback if parent else False
            kind, name, engine, pool, params = classify_header(header, parent_engine and False)
            scope = Scope(kind, name, i, line_of(clean, i), parent)
            scope.engine_callback = engine
            scope.pool_worker = pool
            scope.params = params
            scopes.append(scope)
            stack.append(scope)
            header_start = i + 1
            paren_depth = 0
        elif c == "}":
            if stack:
                stack.pop().end = i
            header_start = i + 1
            paren_depth = 0
        i += 1
    for s in stack:  # unterminated (parse slack): close at EOF
        s.end = n
    return scopes


def scope_at(scopes, idx: int):
    """Innermost scope containing offset idx."""
    best = None
    for s in scopes:
        if s.begin < idx < (s.end if s.end >= 0 else 1 << 60):
            if best is None or s.begin > best.begin:
                best = s
    return best


# --------------------------------------------------------------------------
# declaration harvesting (heuristic types; refined by the libclang oracle)

UNORDERED_DECL = re.compile(
    r"(?:std\s*::\s*)?unordered_(?:map|set|multimap|multiset)\s*<[^;()]*?>\s*&?\s*(\w+)\s*[;={(]"
)
RNG_VALUE_DECL = re.compile(r"(?<![\w:&])(?:vmlp\s*::\s*)?Rng\s+(\w+)\s*[;={]")
RNG_ANY_DECL = re.compile(r"(?<![\w:])(?:vmlp\s*::\s*)?Rng\s*[&*]*\s+(\w+)\s*[;={(,)]")
FLOAT_DECL = re.compile(r"(?<![\w:])(?:double|float)\s+(\w+)\s*[;={]")
FLOAT_VEC_DECL = re.compile(
    r"(?:(?:std\s*::\s*)?vector|ArenaVector)\s*<\s*(?:double|float)\s*>\s*&?\s*(\w+)\s*[;={(]"
)
COLLECTOR_DECL = re.compile(
    r"(?:(?:vmlp\s*::\s*)?obs\s*::\s*)?Collector\s*\*\s*(\w+)\s*[;={]|"
    r"unique_ptr\s*<\s*(?:vmlp\s*::\s*)?(?:obs\s*::\s*)?Collector\s*>\s+(\w+)\s*[;={]"
)
GUARDED_DECL = re.compile(r"\b(\w+)\s+VMLP_GUARDED_BY\s*\(")
ARENA_DECL = re.compile(r"\bShardArena\s*[&*]?\s*(\w+)\s*[;={(]")


class ModuleDecls:
    """Names harvested from a module's header+impl pair."""

    def __init__(self):
        self.unordered: set = set()
        self.rng: set = set()  # any Rng variable (value or ref)
        self.floats: set = set()
        self.float_vectors: set = set()  # vector<double/float> variables
        self.collectors: set = set()
        self.guarded: set = set()  # VMLP_GUARDED_BY-annotated members
        self.arenas: set = set()   # ShardArena variables (lane-owned memory)


def harvest_decls(clean: str, decls: ModuleDecls) -> None:
    for m in UNORDERED_DECL.finditer(clean):
        decls.unordered.add(m.group(1))
    for m in RNG_ANY_DECL.finditer(clean):
        decls.rng.add(m.group(1))
    for m in FLOAT_DECL.finditer(clean):
        decls.floats.add(m.group(1))
    for m in FLOAT_VEC_DECL.finditer(clean):
        decls.float_vectors.add(m.group(1))
    for m in COLLECTOR_DECL.finditer(clean):
        decls.collectors.add(m.group(1) or m.group(2))
    for m in GUARDED_DECL.finditer(clean):
        decls.guarded.add(m.group(1))
    for m in ARENA_DECL.finditer(clean):
        decls.arenas.add(m.group(1))


# --------------------------------------------------------------------------
# libclang oracle (optional)


class LibclangOracle:
    """Precise (file-local) type facts from the clang AST. Augments the
    heuristic declaration maps; the rule engine itself is shared."""

    def __init__(self):
        import clang.cindex as cindex  # may raise ImportError

        self.cindex = cindex
        self.index = cindex.Index.create()  # may raise if libclang.so missing

    @staticmethod
    def _clang_args(command: list) -> list:
        keep = []
        skip_next = False
        for arg in command[1:]:
            if skip_next:
                skip_next = False
                continue
            if arg in ("-c", "-o"):
                skip_next = True
                continue
            if arg.startswith(("-I", "-D", "-std=", "-isystem", "-U")):
                keep.append(arg)
        return keep

    def harvest(self, path: Path, args: list, decls: ModuleDecls) -> bool:
        """Refine `decls` with canonical types; returns False on parse failure."""
        cindex = self.cindex
        try:
            tu = self.index.parse(str(path), args=args + ["-ferror-limit=0"])
        except cindex.TranslationUnitLoadError:
            return False
        want = {cindex.CursorKind.PARM_DECL, cindex.CursorKind.VAR_DECL,
                cindex.CursorKind.FIELD_DECL}
        for cur in tu.cursor.walk_preorder():
            if cur.kind not in want:
                continue
            if cur.location.file is None or Path(str(cur.location.file)) != path:
                continue
            spelling = cur.type.get_canonical().spelling
            name = cur.spelling
            if not name:
                continue
            if "unordered_map<" in spelling or "unordered_set<" in spelling or \
               "unordered_multimap<" in spelling or "unordered_multiset<" in spelling:
                decls.unordered.add(name)
            if re.search(r"\bvmlp::Rng\b", spelling):
                decls.rng.add(name)
            if spelling in ("double", "float", "const double", "const float"):
                decls.floats.add(name)
            if re.search(r"\bvector<(?:double|float)[,>]", spelling):
                decls.float_vectors.add(name)
            if re.search(r"\bvmlp::obs::Collector\b", spelling):
                decls.collectors.add(name)
        return True


def make_oracle():
    try:
        return LibclangOracle(), None
    except Exception as e:  # ImportError or LibclangError
        return None, str(e)


# --------------------------------------------------------------------------
# findings, waivers, baseline


class Finding:
    def __init__(self, path: Path, rel: str, line: int, rule: str, message: str,
                 norm: str):
        self.path = path
        self.rel = rel
        self.line = line
        self.rule = rule
        self.message = message
        self.norm = norm  # whitespace-normalized source line (baseline key)
        self.baselined = False

    def key(self) -> str:
        return f"{self.rule}|{self.rel}|{self.norm}"

    def __str__(self) -> str:
        tag = " (baselined)" if self.baselined else ""
        return f"{self.rel}:{self.line}: [{self.rule}] {self.message}{tag}"


ALLOW_RE = re.compile(r"analyze:\s*allow\(([\w-]+)\)")


def allowed_by_comment(raw_lines: list, lineno: int, rule: str) -> bool:
    """True when the finding line or the contiguous //-comment block above it
    carries `analyze: allow(<rule>)`."""
    texts = [raw_lines[lineno - 1]]
    k = lineno - 2
    while k >= 0 and raw_lines[k].lstrip().startswith("//"):
        texts.append(raw_lines[k])
        k -= 1
    for t in texts:
        for m in ALLOW_RE.finditer(t):
            if m.group(1) == rule:
                return True
    return False


def normalize_line(clean_lines: list, lineno: int) -> str:
    if 1 <= lineno <= len(clean_lines):
        return re.sub(r"\s+", " ", clean_lines[lineno - 1]).strip()
    return ""


# --------------------------------------------------------------------------
# path scoping

CORE_DIRS = {"sim", "sched", "mlp", "cluster", "app", "loadgen"}


def src_module(rel: str):
    """Module dir after the *last* 'src/' component ('sched' for
    src/sched/driver.cpp and for tests/analyze_fixtures/src/sched/x.cpp)."""
    parts = Path(rel).parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "src" and i + 1 < len(parts):
            return parts[i + 1]
    return None


# --------------------------------------------------------------------------
# rule implementations (shared engine; decls may be oracle-refined)

CLOCK_CALLS = [
    (re.compile(r"std\s*::\s*chrono\s*::\s*(?:system_clock|steady_clock|high_resolution_clock)"
                r"\s*::\s*now\s*\("), "std::chrono::*_clock::now()"),
    (re.compile(r"(?<![\w:.>])time\s*\(\s*(?:nullptr|NULL|0|&\w+)?\s*\)"), "time()"),
    (re.compile(r"(?<![\w:.>])clock\s*\(\s*\)"), "clock()"),
    (re.compile(r"(?<![\w:.>])(?:gettimeofday|clock_gettime|timespec_get)\s*\("),
     "clock_gettime()/gettimeofday()"),
    (re.compile(r"(?<![\w:.>])(?:localtime|gmtime|mktime)\s*\("), "calendar time"),
]
HOST_CLOCK_SCOPE_WHITELIST = {"PolicyScope"}


def check_host_clock(ctx, findings):
    if ctx.module not in CORE_DIRS:
        return
    for lineno, line in enumerate(ctx.clean_lines, 1):
        for pattern, name in CLOCK_CALLS:
            m = pattern.search(line)
            if not m:
                continue
            offset = ctx.line_offsets[lineno - 1] + m.start()
            scope = scope_at(ctx.scopes, offset)
            names = scope.enclosing_names() if scope else set()
            if names & HOST_CLOCK_SCOPE_WHITELIST:
                continue
            ctx.emit(findings, lineno, "host-clock",
                     f"{name} in the simulation core: host time must never reach "
                     "a decision; confine profiling to PolicyScope / obs paths "
                     "or waive with `// analyze: allow(host-clock): <reason>`")


RNG_PARAM = re.compile(r"[(,]\s*(?:vmlp\s*::\s*)?Rng\s+(\w+)\s*(?=[,)])")
RNG_COPY_INIT = re.compile(r"(?<![\w:&])(?:vmlp\s*::\s*)?Rng\s+(\w+)\s*(?:=\s*(\w+)\s*;|\{\s*(\w+)\s*\}\s*;|\(\s*(\w+)\s*\)\s*;)")
LAMBDA_CAPTURES = re.compile(r"\[([^\[\]]*)\]\s*(?:\([^()]*\))?\s*(?:mutable|noexcept|->)?")


def check_rng_by_value(ctx, findings):
    if ctx.module is None or "/common/rng." in ctx.rel:
        return
    for lineno, line in enumerate(ctx.clean_lines, 1):
        # (1) by-value Rng parameters (declarations and definitions).
        for m in RNG_PARAM.finditer(line):
            ctx.emit(findings, lineno, "rng-by-value",
                     f"parameter '{m.group(1)}' takes vmlp::Rng by value — both "
                     "copies replay one substream; sinks take Rng&& (callers "
                     "pass a fork()/rvalue), observers take const Rng&")
        # (2) Rng-to-Rng copy initialization from a named lvalue.
        for m in RNG_COPY_INIT.finditer(line):
            rhs = m.group(2) or m.group(3) or m.group(4)
            if rhs and rhs in ctx.decls.rng:
                ctx.emit(findings, lineno, "rng-by-value",
                         f"'{m.group(1)}' copy-initialized from live Rng '{rhs}': "
                         "duplicated stream; fork() a labeled substream instead")
        # (3) lambda captures: by-copy capture of a known Rng variable, or a
        # default copy capture in a body that uses one.
        for m in LAMBDA_CAPTURES.finditer(line):
            caps = m.group(1)
            if "[" in caps:
                continue
            entries = [c.strip() for c in caps.split(",") if c.strip()]
            for entry in entries:
                if entry.startswith("&") or entry in ("this", "*this"):
                    continue
                if "=" in entry:  # init-capture: x = expr
                    init_m = re.match(r"(\w+)\s*=\s*(\w+)$", entry)
                    if init_m and init_m.group(2) in ctx.decls.rng:
                        ctx.emit(findings, lineno, "rng-by-value",
                                 f"init-capture '{entry}' copies live Rng "
                                 f"'{init_m.group(2)}'; capture by reference or "
                                 "move a fork() in")
                    continue
                if entry == "=":
                    # Default copy capture: flag when the lambda body (rest of
                    # the statement span) names a known Rng variable.
                    body = ctx.lambda_body_text(lineno, m.end())
                    if any(re.search(rf"\b{re.escape(r)}\b", body) for r in ctx.decls.rng):
                        ctx.emit(findings, lineno, "rng-by-value",
                                 "default copy capture [=] in a lambda using an "
                                 "Rng: the stream is silently duplicated; capture "
                                 "it by reference explicitly")
                    continue
                if entry in ctx.decls.rng:
                    ctx.emit(findings, lineno, "rng-by-value",
                             f"lambda captures Rng '{entry}' by copy; capture by "
                             "reference or move a fork() in")


RANGE_FOR = re.compile(r"\bfor\s*\(\s*[^;()]*?:\s*([A-Za-z_][\w.\->]*?)\s*\)")
ITER_FOR = re.compile(r"\bfor\s*\(\s*[^;]*=\s*([A-Za-z_][\w.\->]*)\.(?:begin|cbegin)\s*\(\)")
FLOAT_ACCUM = re.compile(r"\b(\w+)\s*(?:\+=|-=|\*=)")
# Accumulation into an element of a float vector (the topology headroom
# index's block folds are this shape): order-dependent exactly like a scalar.
FLOAT_VEC_ACCUM = re.compile(r"\b(\w+)\s*\[[^\]]*\]\s*(?:\+=|-=|\*=)")
EXPORT_SINK = re.compile(r"\b(?:os|out|stream|writer|ss)\s*<<|\b(?:write_|export_|print)\w*\s*\(")
SCHEDULE_SINK = ENGINE_SCHEDULE_CALL


def check_unordered_escape(ctx, findings):
    if ctx.module is None:
        return
    for pattern, kind in ((RANGE_FOR, "range-for"), (ITER_FOR, "iterator loop")):
        for m in pattern.finditer(ctx.clean):
            target = m.group(1).split(".")[-1].split("->")[-1]
            if target not in ctx.decls.unordered:
                continue
            lineno = line_of(ctx.clean, m.start())
            body = ctx.loop_body(m.end())
            sinks = []
            for fm in FLOAT_ACCUM.finditer(body):
                if fm.group(1) in ctx.decls.floats:
                    sinks.append(f"float accumulation into '{fm.group(1)}'")
                    break
            for fm in FLOAT_VEC_ACCUM.finditer(body):
                if fm.group(1) in ctx.decls.float_vectors:
                    sinks.append(
                        f"float accumulation into element of '{fm.group(1)}'")
                    break
            if SCHEDULE_SINK.search(body):
                sinks.append("event scheduling")
            if EXPORT_SINK.search(body):
                sinks.append("export sink")
            if not sinks:
                continue  # order provably stays local: no annotation needed
            ctx.emit(findings, lineno, "unordered-escape",
                     f"{kind} over unordered container '{target}' escapes "
                     f"insertion order into {', '.join(sinks)}; iterate a "
                     "sorted view (collect keys, sort, then process)")


OBS_STATE_GETTERS = ("counter_value", "gauge_value", "snapshot", "registry",
                     "events", "policy_slices", "policy_slices_dropped")
OBS_READ = re.compile(
    r"\b(\w+)\s*(?:->|\.)\s*(" + "|".join(OBS_STATE_GETTERS) + r")\s*\(")


def check_obs_readback(ctx, findings):
    if ctx.module not in CORE_DIRS:
        return
    receivers = ctx.decls.collectors | {"obs_", "obs", "collector", "collector_"}
    for lineno, line in enumerate(ctx.clean_lines, 1):
        for m in OBS_READ.finditer(line):
            if m.group(1) not in receivers:
                continue
            ctx.emit(findings, lineno, "obs-readback",
                     f"reads collector state '{m.group(2)}()' from the simulation "
                     "core: telemetry is write-only there (DESIGN.md §10); move "
                     "the read to exp/ merge/report or derive the value from "
                     "simulation state")


LOCK_ACQ = re.compile(
    r"\b(?:MutexLock|std\s*::\s*lock_guard|std\s*::\s*unique_lock|std\s*::\s*scoped_lock)\b"
    r"|(?<![\w.>])\.\s*lock\s*\(\s*\)|->\s*lock\s*\(\s*\)|\b(\w+)\s*\.\s*lock\s*\(\s*\)")


def check_engine_lock(ctx, findings):
    if ctx.module is None:
        return
    for lineno, line in enumerate(ctx.clean_lines, 1):
        m = LOCK_ACQ.search(line)
        if not m:
            continue
        offset = ctx.line_offsets[lineno - 1] + m.start()
        if ctx.module == "sim":
            ctx.emit(findings, lineno, "engine-lock",
                     "lock acquisition in src/sim/: the engine is single-threaded "
                     "by design and this is its hot path; parallelism belongs at "
                     "the trial level")
            continue
        if ctx.module in CORE_DIRS:
            scope = scope_at(ctx.scopes, offset)
            if scope is not None and scope.in_engine_callback():
                ctx.emit(findings, lineno, "engine-lock",
                         "lock acquisition inside a lambda scheduled on "
                         "sim::Engine: engine callbacks run on the single "
                         "simulation thread; locking there stalls the hot path")


WRITE_TRAILER = r"((?:\s*(?:\.|->)\s*\w+|\s*\[[^\]]*\])*)"
SHARD_ASSIGN = re.compile(
    r"(?<![\w.>:])([A-Za-z_]\w*)" + WRITE_TRAILER +
    r"\s*(?:=(?!=)|\+=|-=|\*=|/=|\|=|&=|\^=|<<=|>>=|\+\+|--)")
SHARD_PREFIX_INCR = re.compile(
    r"(?:\+\+|--)\s*([A-Za-z_]\w*)" + WRITE_TRAILER)
SHARD_MUTATOR = re.compile(
    r"(?<![\w.>:])([A-Za-z_]\w*)" + WRITE_TRAILER +
    r"\s*(?:\.|->)\s*(?:push_back|emplace_back|emplace|insert|erase|clear|"
    r"resize|reserve|pop_back|assign|append|merge_from|reset)\s*\(")
LOCAL_DECL = re.compile(
    r"(?:^|[;{}()])\s*(?:const\s+)?([A-Za-z_][\w:]*(?:\s*<[^<>]*>)?)\s*"
    r"[&*]?\s+([A-Za-z_]\w*)\s*(?:=|;|\{|\()")
LOCAL_DECL_KEYWORDS = {"return", "delete", "throw", "else", "case", "goto", "new",
                       "co_return", "co_yield", "typename", "using", "break",
                       "continue", "do", "sizeof"}
TRAILER_MEMBER = re.compile(r"(?:\.|->)\s*(\w+)")
TRAILER_INDEX = re.compile(r"\[([^\]]*)\]")


def check_shard_shared_state(ctx, findings):
    """Mutation of shared state inside a shard-worker lambda (the callable
    handed to ThreadPool::parallel_for / parallel_for_dynamic) that is not
    provably shard-safe. Sanctioned patterns:
      * body-local variables (each invocation owns its own);
      * lambda parameters, and element writes indexed by a lambda parameter
        (the pre-sized results[i] slot-per-trial idiom);
      * VMLP_GUARDED_BY-annotated members (mutex-protected by contract);
      * ShardArena variables (lane-owned memory, bound per worker).
    Everything else written from a pool-worker lambda is cross-shard shared
    mutable state — the class of bug the per-shard arena architecture
    (DESIGN.md §12) exists to rule out. Heuristic limits: a body-local
    *reference* aliasing shared state is trusted (the per-lane padded-slot
    idiom takes that shape deliberately)."""
    if ctx.module is None:
        return
    for scope in ctx.scopes:
        if scope.kind != "lambda" or not scope.pool_worker:
            continue
        body = ctx.clean[scope.begin : scope.end + 1 if scope.end >= 0 else len(ctx.clean)]
        local = set(scope.params)
        for m in LOCAL_DECL.finditer(body):
            if m.group(1) not in LOCAL_DECL_KEYWORDS:
                local.add(m.group(2))
        seen = set()
        for pattern, what in ((SHARD_ASSIGN, "assignment to"),
                              (SHARD_PREFIX_INCR, "increment of"),
                              (SHARD_MUTATOR, "mutating call on")):
            for m in pattern.finditer(body):
                root, trailer = m.group(1), m.group(2) or ""
                if root in local or root in ctx.decls.arenas:
                    continue
                members = TRAILER_MEMBER.findall(trailer)
                if root in ctx.decls.guarded or any(x in ctx.decls.guarded for x in members):
                    continue
                indexes = TRAILER_INDEX.findall(trailer)
                if any(re.search(rf"\b{re.escape(p)}\b", ix)
                       for ix in indexes for p in scope.params):
                    continue
                lineno = line_of(ctx.clean, scope.begin + m.start())
                target = root + re.sub(r"\s+", "", trailer)
                if (lineno, target) in seen:
                    continue
                seen.add((lineno, target))
                ctx.emit(findings, lineno, "shard-shared-state",
                         f"{what} '{target}' inside a shard-worker lambda: not "
                         "body-local, not indexed by a lambda parameter, and not "
                         "VMLP_GUARDED_BY/arena-owned — concurrent shards race on "
                         "it; give each lane its own padded slot or guard it")


# --------------------------------------------------------------------------
# per-file analysis context


class FileContext:
    def __init__(self, path: Path, rel: str, decls: ModuleDecls):
        self.path = path
        self.rel = rel
        self.module = src_module(rel)
        raw = path.read_text(encoding="utf-8")
        self.raw_lines = raw.split("\n")
        self.clean = strip_comments_and_strings(raw)
        self.clean_lines = self.clean.split("\n")
        self.line_offsets = []
        off = 0
        for line in self.clean_lines:
            self.line_offsets.append(off)
            off += len(line) + 1
        self.scopes = build_scopes(self.clean)
        self.decls = decls

    def emit(self, findings, lineno, rule, message):
        if allowed_by_comment(self.raw_lines, lineno, rule):
            return
        findings.append(Finding(self.path, self.rel, lineno, rule, message,
                                normalize_line(self.clean_lines, lineno)))

    def loop_body(self, after: int) -> str:
        """Text of the loop body starting at the first '{' (balanced span) or
        the single statement up to ';' following offset `after`."""
        n = len(self.clean)
        i = after
        while i < n and self.clean[i] in " \t\n":
            i += 1
        if i < n and self.clean[i] == "{":
            depth = 0
            for j in range(i, n):
                if self.clean[j] == "{":
                    depth += 1
                elif self.clean[j] == "}":
                    depth -= 1
                    if depth == 0:
                        return self.clean[i : j + 1]
            return self.clean[i:]
        j = self.clean.find(";", i)
        return self.clean[i : j + 1 if j != -1 else n]

    def lambda_body_text(self, lineno: int, col: int) -> str:
        start = self.line_offsets[lineno - 1] + col
        return self.loop_body(start)


RULES = [check_host_clock, check_rng_by_value, check_unordered_escape,
         check_obs_readback, check_engine_lock, check_shard_shared_state]


# --------------------------------------------------------------------------
# driver


def module_pair(path: Path) -> list:
    stem = path.with_suffix("")
    return [p for p in (stem.with_suffix(".h"), stem.with_suffix(".cpp")) if p.is_file()]


def load_compile_commands(build_dir: Path):
    db = build_dir / "compile_commands.json"
    if not db.is_file():
        return None
    entries = json.loads(db.read_text(encoding="utf-8"))
    commands = {}
    for e in entries:
        src = Path(e["directory"]) / e["file"] if not Path(e["file"]).is_absolute() \
            else Path(e["file"])
        src = src.resolve()
        args = e.get("arguments") or e.get("command", "").split()
        commands[src] = args
    return commands


def discover_targets(root: Path, build_dir: Path):
    """TUs under root/src from the compilation database (plus paired headers);
    falls back to a glob when no database exists."""
    commands = load_compile_commands(build_dir) if build_dir else None
    files = []
    if commands:
        src_root = (root / "src").resolve()
        for src in sorted(commands):
            try:
                src.relative_to(src_root)
            except ValueError:
                continue
            files.append((src, commands[src]))
    if not files:
        for p in sorted(root.glob("src/**/*.cpp")):
            files.append((p.resolve(), []))
    seen = {f for f, _ in files}
    with_headers = []
    for f, args in files:
        with_headers.append((f, args))
        for h in module_pair(f):
            h = h.resolve()
            if h not in seen:
                seen.add(h)
                with_headers.append((h, args))
    return with_headers


def analyze(targets, root: Path, oracle) -> list:
    # Harvest declarations per module first (header+impl see each other's
    # member declarations), then run every rule with the merged decls.
    decls_by_module = {}
    contexts = []
    for path, args in targets:
        stem = str(path.with_suffix(""))
        decls = decls_by_module.get(stem)
        if decls is None:
            decls = ModuleDecls()
            for src in module_pair(path) or [path]:
                harvest_decls(strip_comments_and_strings(src.read_text(encoding="utf-8")),
                              decls)
            decls_by_module[stem] = decls
        if oracle is not None and path.suffix == ".cpp":
            oracle.harvest(path, LibclangOracle._clang_args(args) if args else [], decls)
        try:
            rel = path.relative_to(root).as_posix()
        except ValueError:
            rel = path.as_posix()
        contexts.append(FileContext(path, rel, decls))
    findings = []
    for ctx in contexts:
        for rule in RULES:
            rule(ctx, findings)
    findings.sort(key=lambda f: (f.rel, f.line, f.rule))
    return findings


def apply_baseline(findings: list, baseline_path: Path):
    """Mark findings covered by the baseline; returns (new, stale_entries)."""
    entries: dict = {}
    if baseline_path and baseline_path.is_file():
        for line in baseline_path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            entries[line] = entries.get(line, 0) + 1
    new = []
    for f in findings:
        k = f.key()
        if entries.get(k, 0) > 0:
            entries[k] -= 1
            f.baselined = True
        else:
            new.append(f)
    stale = [k for k, count in entries.items() if count > 0]
    return new, stale


def write_baseline(findings: list, baseline_path: Path) -> None:
    lines = [
        "# vmlp_analyze accepted findings: rule|path|normalized-source-line.",
        "# Regenerate with tools/vmlp_analyze.py --update-baseline; every entry",
        "# should carry a justification comment above it.",
    ]
    last_rel = None
    for f in findings:
        if f.rel != last_rel:
            lines.append(f"# -- {f.rel}")
            last_rel = f.rel
        lines.append(f.key())
    baseline_path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, add_help=True,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=".", help="repository root (default: cwd)")
    parser.add_argument("-p", "--build-dir", default=None,
                        help="build dir holding compile_commands.json "
                             "(default: <root>/build, then <root>/build-*)")
    parser.add_argument("--baseline", default=None,
                        help="baseline file (default: <root>/tools/vmlp_analyze_baseline.txt)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline from current findings and exit 0")
    parser.add_argument("--frontend", choices=("auto", "libclang", "internal"),
                        default="auto")
    parser.add_argument("--require-libclang", action="store_true",
                        help="exit 77 instead of falling back when libclang is missing")
    parser.add_argument("--report", default=None,
                        help="write the full findings report (incl. baselined) to FILE")
    parser.add_argument("files", nargs="*",
                        help="explicit files (default: compile_commands TUs under src/)")
    args = parser.parse_args(argv)

    root = Path(args.root).resolve()
    build_dir = Path(args.build_dir).resolve() if args.build_dir else None
    if build_dir is None:
        for cand in [root / "build"] + sorted(root.glob("build-*")):
            if (cand / "compile_commands.json").is_file():
                build_dir = cand
                break

    oracle = None
    oracle_note = "internal frontend (structural)"
    if args.frontend in ("auto", "libclang"):
        oracle, err = make_oracle()
        if oracle is not None:
            oracle_note = "libclang frontend (AST types) + structural rule engine"
        else:
            if args.require_libclang or args.frontend == "libclang":
                print(f"vmlp_analyze: libclang unavailable ({err}); skipping",
                      file=sys.stderr)
                return 77
            oracle_note = f"internal frontend (libclang unavailable: {err})"

    if args.files:
        targets = [(Path(f).resolve(), []) for f in args.files]
        for f, _ in targets:
            if not f.is_file():
                print(f"vmlp_analyze: no such file: {f}", file=sys.stderr)
                return 2
    else:
        targets = discover_targets(root, build_dir)
    if not targets:
        print("vmlp_analyze: no input files (no compile_commands.json and no src/)",
              file=sys.stderr)
        return 2

    findings = analyze(targets, root, oracle)

    baseline_path = Path(args.baseline).resolve() if args.baseline else \
        root / "tools" / "vmlp_analyze_baseline.txt"
    if args.update_baseline:
        write_baseline(findings, baseline_path)
        print(f"vmlp_analyze: baseline rewritten with {len(findings)} entr"
              f"{'y' if len(findings) == 1 else 'ies'}: {baseline_path}")
        return 0

    new, stale = apply_baseline(findings, baseline_path)

    report_lines = [f"vmlp_analyze: {oracle_note}; {len(targets)} files"]
    for f in findings:
        report_lines.append(str(f))
    report_lines.append(
        f"vmlp_analyze: {len(new)} new finding(s), "
        f"{len(findings) - len(new)} baselined, {len(stale)} stale baseline entr"
        f"{'y' if len(stale) == 1 else 'ies'}")
    if args.report:
        Path(args.report).write_text("\n".join(report_lines) + "\n", encoding="utf-8")

    for f in new:
        print(f)
    for k in stale:
        print(f"vmlp_analyze: stale baseline entry (no longer found): {k}",
              file=sys.stderr)
    if new:
        print(f"vmlp_analyze: {len(new)} new finding(s) in {len(targets)} file(s) "
              f"[{oracle_note}]", file=sys.stderr)
        return 1
    print(f"vmlp_analyze: clean ({len(targets)} files, "
          f"{len(findings) - len(new)} baselined) [{oracle_note}]")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
