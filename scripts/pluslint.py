#!/usr/bin/env python3
"""pluslint — determinism-contract static analyzer for the PLUS simulator.

The repo's most valuable invariant is that both engine backends (the
timing wheel and the heap oracle) produce byte-identical observable
output, run after run. scripts/ci.sh verifies that dynamically;
pluslint enforces the *sources* of nondeterminism statically, before a
bench has to catch them:

  R1  unordered-iteration   no iteration over std::unordered_map /
                            std::unordered_set — hash order is not part of
                            the contract. Use an ordered container or
                            plus::sortedView() (common/determinism.hpp).
  R2  wall-clock            no std::chrono::{system,steady,high_resolution}
                            _clock, time(), clock(), gettimeofday(),
                            std::random_device, rand()/srand(), or cycle
                            counters (__rdtsc and friends) outside files
                            annotated PLUS_HOST_ONLY("reason").
  R3  pointer-order         no pointer-keyed std::map/std::set and no
                            std::less<T*> — allocation addresses differ run
                            to run, so pointer order is nondeterministic.
  R4  mutable-static        no mutable namespace-scope, static, or
                            thread_local state — hidden global state breaks
                            replay and Machine isolation.
  R5  env-read              no getenv()/setenv() outside src/common/config —
                            environment inputs go through plus::envRead()
                            so configuration stays auditable in one place.

Suppression is deliberately loud: an inline

    // pluslint: allow(R1) -- <reason>

comment on the finding's line (or the line above) waives exactly the
named rules, and a checked-in baseline (scripts/pluslint_baseline.txt,
refreshed with --update-baseline) grandfathers existing debt. Everything
else fails the lint CI stage.

Frontend: a built-in tokenizer performs the checks lexically, with no
build and no compiler library. It tracks type aliases and declarations
across each file's quoted-include closure, so member iteration in a .cpp
over an unordered map declared in the .hpp is still caught. The lint
corpus (tests/lint_corpus) is its gate.

Exit status: 0 clean (or fully suppressed/baselined), 1 findings, 2 usage.
"""

import argparse
import hashlib
import os
import re
import sys

RULES = {
    "R1": "unordered-iteration",
    "R2": "wall-clock",
    "R3": "pointer-order",
    "R4": "mutable-static",
    "R5": "env-read",
}

# Files (repo-relative, forward slashes) exempt per rule by construction.
# Prefer inline allow() comments — they carry a reason and stay local; the
# allowlist exists for files that *are* the mechanism a rule mandates.
ALLOWLIST = {
    "R5": {"src/common/config.cpp", "src/common/config.hpp"},
}

UNORDERED_TYPES = {"unordered_map", "unordered_set", "unordered_multimap",
                   "unordered_multiset"}
ORDERED_TYPES = {"map", "set", "multimap", "multiset", "vector", "deque",
                 "list", "array", "span", "string", "flat_map", "flat_set"}
R2_BANNED_IDS = {"system_clock", "steady_clock", "high_resolution_clock",
                 "random_device"}
R2_BANNED_CALLS = {"time", "clock", "rand", "srand", "gettimeofday",
                   "clock_gettime", "timespec_get", "localtime", "gmtime",
                   "__rdtsc", "__builtin_ia32_rdtsc", "__builtin_readcyclecounter"}
R5_BANNED_CALLS = {"getenv", "secure_getenv", "setenv", "putenv", "unsetenv"}
R4_SKIP_STARTERS = {"using", "typedef", "namespace", "template", "friend",
                    "static_assert", "extern", "struct", "class", "union",
                    "enum", "concept", "public", "private", "protected",
                    "typename", "asm", "export", "if", "else", "for",
                    "while", "do", "switch", "case", "return", "goto",
                    "break", "continue", "try", "catch", "throw", "delete",
                    "new", "co_return", "co_await", "co_yield", "default"}

ALLOW_RE = re.compile(
    r"pluslint:\s*allow\(\s*(R[0-9](?:\s*,\s*R[0-9])*)\s*\)\s*(--\s*\S.*)?")
SUFFIXES = (".cpp", ".cc", ".cxx", ".hpp", ".hh", ".hxx", ".h")


class Finding:
    __slots__ = ("rule", "path", "line", "message", "line_text")

    def __init__(self, rule, path, line, message, line_text=""):
        self.rule = rule
        self.path = path  # repo-relative, forward slashes
        self.line = line
        self.message = message
        self.line_text = line_text

    def key(self):
        return (self.path, self.line, self.rule)

    def fingerprint(self):
        norm = re.sub(r"\s+", "", self.line_text)
        digest = hashlib.sha1(
            f"{self.rule}|{self.path}|{norm}".encode()).hexdigest()
        return digest[:12]

    def render(self):
        return (f"{self.path}:{self.line}: [{self.rule}] {self.message} "
                f"({RULES[self.rule]})")


# --------------------------------------------------------------------------
# Tokenizer (shared: the token frontend, allow-comment scanning, and
# the PLUS_HOST_ONLY file-annotation check all run on this).
# --------------------------------------------------------------------------

TOKEN_RE = re.compile(r"""
      (?P<ws>\s+)
    | (?P<comment>//[^\n]*|/\*.*?\*/)
    | (?P<str>"(?:[^"\\\n]|\\.)*"|R"\((?:.|\n)*?\)")
    | (?P<char>'(?:[^'\\\n]|\\.)*')
    | (?P<num>(?:0[xXbB])?[0-9][0-9a-fA-F'.uUlLzZ+-]*(?<![+-]))
    | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<punct>::|->|<=>|<<=|>>=|\+\+|--|<<|>>|<=|>=|==|!=|&&|\|\||[{}()\[\]<>;:,.*&=+\-/%!~^|?\#])
""", re.VERBOSE | re.DOTALL)


class Tok:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind, text, line):
        self.kind = kind
        self.text = text
        self.line = line

    def __repr__(self):
        return f"{self.kind}:{self.text}@{self.line}"


class SourceFile:
    """One tokenized source file: code tokens, comments, and includes."""

    def __init__(self, path, text):
        self.path = path
        self.lines = text.split("\n")
        self.tokens = []       # code tokens, preprocessor lines excluded
        self.comments = {}     # line -> [comment text] (block: every line)
        self.includes = []     # quoted include operands, as written
        self.host_only = False
        self._lex(text)

    def _lex(self, text):
        # Fold line continuations so directive detection sees whole lines.
        directive_lines = set()
        for i, line in enumerate(self.lines, start=1):
            if line.lstrip().startswith("#"):
                directive_lines.add(i)
                m = re.match(r'\s*#\s*include\s*"([^"]+)"', line)
                if m:
                    self.includes.append(m.group(1))
        line = 1
        for m in TOKEN_RE.finditer(text):
            kind = m.lastgroup
            tok = m.group()
            start_line = line
            line += tok.count("\n")
            if kind == "ws":
                continue
            if kind == "comment":
                for ln in range(start_line, line + 1):
                    self.comments.setdefault(ln, []).append(tok)
                continue
            if start_line in directive_lines:
                continue
            self.tokens.append(Tok(kind, tok, start_line))
        toks = self.tokens
        self.host_only = any(
            t.text == "PLUS_HOST_ONLY" and i + 1 < len(toks)
            and toks[i + 1].text == "(" for i, t in enumerate(toks))

    def allows(self, line, rule):
        """True if an allow(rule) comment covers `line`: on the line
        itself, or in the contiguous comment block directly above it."""
        candidates = [line]
        ln = line - 1
        while 0 < ln <= len(self.lines) and \
                self.lines[ln - 1].lstrip().startswith(("//", "/*", "*")):
            candidates.append(ln)
            ln -= 1
        for ln in candidates:
            for comment in self.comments.get(ln, ()):
                m = ALLOW_RE.search(comment)
                if not m:
                    continue
                rules = {r.strip() for r in m.group(1).split(",")}
                if rule in rules and m.group(2):
                    return True
        return False


# --------------------------------------------------------------------------
# Token frontend
# --------------------------------------------------------------------------

def skip_template_args(toks, i):
    """toks[i] == '<': return index just past the matching '>'."""
    depth = 0
    while i < len(toks):
        t = toks[i].text
        if t == "<":
            depth += 1
        elif t == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif t == ">>":
            depth -= 2
            if depth <= 0:
                return i + 1
        elif t in (";", "{"):
            return i  # malformed / not really template args
        i += 1
    return i


def collect_decls(src, unordered, ordered, unordered_fns, aliases,
                  unordered_elem):
    """Record names declared with unordered / ordered container types.

    Walks the token stream looking at each appearance of a container type
    (or a recorded alias of one) and scans forward past the template
    arguments to the declarator: `name ;`, `name =`, `name {` record a
    variable/member, `& name (` or `name (` record a function returning
    the container. `using Alias = std::unordered_map<...>` records an
    alias that later declarations resolve through.
    """
    toks = src.tokens
    i = 0
    while i < len(toks):
        t = toks[i]
        if t.kind != "id":
            i += 1
            continue
        is_unordered = (t.text in UNORDERED_TYPES
                        or aliases.get(t.text) == "unordered")
        is_ordered = (t.text in ORDERED_TYPES
                      or aliases.get(t.text) == "ordered")
        if t.text in ORDERED_TYPES:
            # Require the std:: qualifier for the short generic names so a
            # project type called `set` or a member `list` cannot match.
            if not (i >= 2 and toks[i - 1].text == "::"
                    and toks[i - 2].text == "std"):
                is_ordered = False
        if not (is_unordered or is_ordered):
            i += 1
            continue
        flavor = "unordered" if is_unordered else "ordered"
        # `using Alias = <container>` (scan back past std:: qualifiers).
        j = i
        while j >= 2 and toks[j - 1].text in ("::", "std"):
            j -= 1
        if j >= 2 and toks[j - 1].text == "=" and toks[j - 2].kind == "id" \
                and j >= 3 and toks[j - 3].text == "using":
            aliases[toks[j - 2].text] = flavor
        k = i + 1
        if k < len(toks) and toks[k].text == "<":
            k = skip_template_args(toks, k)
        # Skip cv/ref/ptr declarator decoration.
        saw_ref = False
        while k < len(toks) and toks[k].text in ("&", "*", "const", "&&"):
            saw_ref = saw_ref or toks[k].text in ("&", "&&")
            k += 1
        names = []
        is_fn = False
        while k < len(toks) and toks[k].kind == "id":
            name = toks[k].text
            k += 1
            if k < len(toks) and toks[k].text == "(":
                is_fn = True
                names.append(name)
                break
            if k < len(toks) and toks[k].text in (";", "=", "{", ","):
                names.append(name)
                if toks[k].text == ",":
                    k += 1
                    continue
            break
        target = unordered if flavor == "unordered" else ordered
        # An ordered container *of* unordered containers (e.g.
        # std::vector<std::unordered_map<...>>): its elements — and thus
        # the loop variable of a range-for over it — are unordered.
        nested_unordered = flavor == "ordered" and any(
            t.text in UNORDERED_TYPES for t in toks[i + 1:k])
        for name in names:
            if is_fn:
                if flavor == "unordered" and saw_ref:
                    unordered_fns.add(name)
            else:
                target.add(name)
                if nested_unordered:
                    unordered_elem.add(name)
        i += 1


def loop_var_name(toks, i, expr):
    """toks[i] == 'for': name of the range-for's loop variable, or None
    for structured bindings (whose components are not containers)."""
    j = i + 2  # past 'for ('
    names = []
    while j < len(toks) and toks[j] is not expr[0]:
        if toks[j].text == "[":
            return None
        if toks[j].kind == "id" and toks[j].text not in (
                "const", "auto", "mutable"):
            names.append(toks[j].text)
        j += 1
    return names[-1] if names else None


def range_for_expr(toks, i):
    """toks[i] == 'for': return (expr_tokens, line) for a range-for."""
    if i + 1 >= len(toks) or toks[i + 1].text != "(":
        return None
    depth = 0
    colon = None
    j = i + 1
    while j < len(toks):
        t = toks[j].text
        if t == "(":
            depth += 1
        elif t == ")":
            depth -= 1
            if depth == 0:
                break
        elif t == ":" and depth == 1 and colon is None:
            colon = j
        elif t == ";" and depth == 1:
            return None  # classic for loop
        j += 1
    if colon is None or j >= len(toks):
        return None
    return toks[colon + 1:j], toks[i].line


def lint_tokens_file(src, table, rel, findings):
    unordered, ordered, unordered_fns, unordered_elem = table
    toks = src.tokens
    # Loop variables bound to unordered elements of an ordered container
    # (outer `for (auto& x : vec_of_umaps)` makes `x` unordered below).
    loop_unordered = set()

    def add(rule, line, message):
        if rel in ALLOWLIST.get(rule, ()):
            return
        text = src.lines[line - 1] if 0 < line <= len(src.lines) else ""
        findings.append(Finding(rule, rel, line, message, text))

    ambiguous = unordered & ordered
    flag_vars = unordered - ambiguous

    for i, t in enumerate(toks):
        nxt = toks[i + 1].text if i + 1 < len(toks) else ""
        prv = toks[i - 1].text if i > 0 else ""

        # ---- R1: iteration over unordered containers ------------------
        if t.text == "for":
            got = range_for_expr(toks, i)
            if got and any(e.text == "sortedView" for e in got[0]):
                got = None  # plus::sortedView() makes the order defined
            if got:
                expr, line = got
                for k, e in enumerate(expr):
                    if e.kind != "id":
                        continue
                    enxt = expr[k + 1].text if k + 1 < len(expr) else ""
                    if e.text in flag_vars or e.text in loop_unordered or \
                            e.text in UNORDERED_TYPES or \
                            (e.text in unordered_fns and enxt == "("):
                        add("R1", line,
                            f"range-for over unordered container "
                            f"'{e.text}' — hash order is not "
                            f"deterministic; use an ordered container or "
                            f"plus::sortedView()")
                        break
                    if e.text in unordered_elem:
                        # Iterating the ordered outer container is fine,
                        # but its loop variable is an unordered container.
                        var = loop_var_name(toks, i, expr)
                        if var:
                            loop_unordered.add(var)
                        break
        if t.kind == "id" and t.text in ("begin", "cbegin") and \
                nxt == "(" and prv in (".", "->") and i >= 2:
            base = toks[i - 2]
            if base.kind == "id" and (base.text in flag_vars
                                      or base.text in loop_unordered):
                add("R1", t.line,
                    f"iterator walk of unordered container '{base.text}' "
                    f"— hash order is not deterministic; use an ordered "
                    f"container or plus::sortedView()")

        # ---- R2: wall-clock / host entropy ----------------------------
        if not src.host_only and t.kind == "id":
            if t.text in R2_BANNED_IDS:
                add("R2", t.line,
                    f"'{t.text}' is host nondeterminism; simulated time "
                    f"comes from sim::Engine::now() — or annotate the "
                    f"file PLUS_HOST_ONLY(\"reason\")")
            elif t.text in R2_BANNED_CALLS and nxt == "(" and \
                    prv not in (".", "->"):
                add("R2", t.line,
                    f"call to '{t.text}()' reads the host clock/entropy; "
                    f"use sim::Engine::now() / common/rng.hpp — or "
                    f"annotate the file PLUS_HOST_ONLY(\"reason\")")

        # ---- R3: pointer-keyed ordered containers ---------------------
        if t.kind == "id" and nxt == "<" and (
                t.text in ("map", "set", "multimap", "multiset", "less")
                and prv == "::" and i >= 2 and toks[i - 2].text == "std"):
            end = skip_template_args(toks, i + 1)
            depth = 0
            first_arg = []
            for k in range(i + 1, end):
                tt = toks[k].text
                if tt == "<":
                    depth += 1
                elif tt in (">", ">>"):
                    depth -= 2 if tt == ">>" else 1
                elif tt == "," and depth == 1:
                    break
                if depth >= 1:
                    first_arg.append(toks[k])
            if any(a.text == "*" for a in first_arg):
                add("R3", t.line,
                    f"std::{t.text} keyed/ordered by pointer value — "
                    f"allocation addresses differ run to run; key by a "
                    f"stable id (NodeId, Vpn, tag) instead")

        # ---- R5: environment reads ------------------------------------
        if t.kind == "id" and t.text in R5_BANNED_CALLS and nxt == "(" and \
                prv not in (".", "->"):
            add("R5", t.line,
                f"'{t.text}()' outside common/config — route the read "
                f"through plus::envRead() so configuration inputs stay "
                f"auditable in one place")

    # ---- R4: mutable namespace-scope / static state -------------------
    lint_mutable_state(src, rel, add)


def lint_mutable_state(src, rel, add):
    """Scope-tracking scan for R4.

    Namespace scopes are transparent; class/function/initializer braces
    are opaque. At transparent scope every `;`/`{`-terminated statement is
    examined; inside opaque scopes only `static`/`thread_local`
    declarations are (function-local statics, static data members).
    """
    toks = src.tokens
    scopes = []  # "ns" (transparent) or "opaque"
    stmt = []    # tokens of the statement being accumulated

    def transparent():
        return all(s == "ns" for s in scopes)

    def classify_brace():
        texts = [t.text for t in stmt]
        if "namespace" in texts:
            return "ns"
        return "opaque"

    def examine(terminator):
        if not stmt:
            return
        texts = [t.text for t in stmt]
        is_static = "static" in texts or "thread_local" in texts
        if not transparent() and not is_static:
            return
        first = texts[0]
        if first in R4_SKIP_STARTERS or stmt[0].kind not in ("id",):
            # `using`, type definitions, control flow, labels…  A statement
            # starting with anything but an identifier is not a plain
            # variable declaration.
            if not (is_static and first in ("static", "thread_local")):
                return
        if any(t in ("const", "constexpr", "constinit") for t in texts):
            return
        if "(" in texts:
            return  # function declaration/definition or paren-init
        if terminator == "{" and "=" not in texts and first in (
                "static", "thread_local"):
            pass  # `static Foo x{...};`
        body = [t for t in stmt if t.text not in (
            "static", "thread_local", "inline", "mutable")]
        if len(body) < 2:
            return
        # The declared name: last identifier before the initializer.
        declarator = body
        if "=" in texts:
            declarator = body[:[t.text for t in body].index("=")]
        name = next((t.text for t in reversed(declarator)
                     if t.kind == "id"), texts[0])
        decl_kind = ("thread_local" if "thread_local" in texts
                     else "static" if "static" in texts
                     else "namespace-scope")
        add("R4", stmt[0].line,
            f"mutable {decl_kind} state '{name}' — hidden global state "
            f"breaks replay and Machine isolation; make it "
            f"const/constexpr, move it into the owning object, or "
            f"allow() it with a reason")

    for t in toks:
        if t.text == "{":
            examine("{")
            scopes.append(classify_brace())
            stmt = []
        elif t.text == "}":
            if scopes:
                scopes.pop()
            stmt = []
        elif t.text == ";":
            examine(";")
            stmt = []
        else:
            stmt.append(t)


def build_symbol_table(path, root, cache, visited=None):
    """Union of container declarations over `path` + its quoted-include
    closure (resolved against the repo's src/ include root)."""
    if visited is None:
        visited = set()
    rp = os.path.realpath(path)
    if rp in visited:
        return set(), set(), set(), set()
    visited.add(rp)
    src = load_source(path, cache)
    if src is None:
        return set(), set(), set(), set()
    unordered, ordered, fns, elems = set(), set(), set(), set()
    aliases = {}
    collect_decls(src, unordered, ordered, fns, aliases, elems)
    for inc in src.includes:
        for base in (os.path.join(root, "src"), os.path.dirname(path)):
            cand = os.path.join(base, inc)
            if os.path.isfile(cand):
                u2, o2, f2, e2 = build_symbol_table(cand, root, cache,
                                                    visited)
                unordered |= u2
                ordered |= o2
                fns |= f2
                elems |= e2
                break
    return unordered, ordered, fns, elems


def load_source(path, cache):
    rp = os.path.realpath(path)
    if rp not in cache:
        try:
            with open(path, encoding="utf-8", errors="replace") as fh:
                cache[rp] = SourceFile(path, fh.read())
        except OSError:
            cache[rp] = None
    return cache[rp]


def run_token_frontend(files, root, verbose):
    findings = []
    cache = {}
    for path in files:
        rel = relpath(path, root)
        src = load_source(path, cache)
        if src is None:
            continue
        table = build_symbol_table(path, root, cache)
        if verbose:
            print(f"  tokens: {rel} "
                  f"(unordered symbols: {sorted(table[0] | table[2])})",
                  file=sys.stderr)
        lint_tokens_file(src, table, rel, findings)
    # Apply inline suppressions.
    kept = []
    for f in findings:
        src = load_source(os.path.join(root, f.path), cache)
        if src is not None and src.allows(f.line, f.rule):
            continue
        kept.append(f)
    return kept


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def relpath(path, root):
    return os.path.relpath(os.path.realpath(path),
                           os.path.realpath(root)).replace(os.sep, "/")


def enumerate_files(paths):
    files = []
    for p in paths:
        if os.path.isdir(p):
            for dirpath, _dirnames, filenames in os.walk(p):
                for name in sorted(filenames):
                    if name.endswith(SUFFIXES):
                        files.append(os.path.join(dirpath, name))
        elif os.path.isfile(p):
            files.append(p)
        else:
            print(f"pluslint: no such file or directory: {p}",
                  file=sys.stderr)
            sys.exit(2)
    return sorted(set(files))


def load_baseline(path):
    entries = set()
    if path and os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line and not line.startswith("#"):
                    entries.add(tuple(line.split()))
    return entries


def main(argv):
    root_default = os.path.dirname(
        os.path.dirname(os.path.realpath(__file__)))
    ap = argparse.ArgumentParser(
        prog="pluslint",
        description="determinism-contract static analyzer "
                    "(rules R1-R5; see docs/STATIC_ANALYSIS.md)")
    ap.add_argument("paths", nargs="*",
                    help="files/directories to lint (default: src/)")
    ap.add_argument("--root", default=root_default,
                    help="repo root for relative paths and src/ includes")
    ap.add_argument("--baseline", default=None,
                    help="baseline file (default: "
                         "<root>/scripts/pluslint_baseline.txt)")
    ap.add_argument("--no-baseline", action="store_true",
                    help="ignore the baseline (report all findings)")
    ap.add_argument("--update-baseline", action="store_true",
                    help="rewrite the baseline with the current findings")
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args(argv)

    root = os.path.realpath(args.root)
    paths = args.paths or [os.path.join(root, "src")]
    files = enumerate_files(paths)
    if not files:
        print("pluslint: nothing to lint", file=sys.stderr)
        return 2

    findings = run_token_frontend(files, root, args.verbose)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))

    baseline_path = args.baseline or os.path.join(
        root, "scripts", "pluslint_baseline.txt")
    if args.update_baseline:
        with open(baseline_path, "w", encoding="utf-8") as fh:
            fh.write("# pluslint baseline — grandfathered findings.\n"
                     "# Regenerate with scripts/pluslint.py "
                     "--update-baseline; shrink it, never grow it.\n"
                     "# Format: <rule> <path> <fingerprint>\n")
            for f in findings:
                fh.write(f"{f.rule} {f.path} {f.fingerprint()}\n")
        print(f"pluslint: baseline updated with {len(findings)} "
              f"finding(s) -> {baseline_path}")
        return 0

    baseline = set() if args.no_baseline else load_baseline(baseline_path)
    fresh = [f for f in findings
             if (f.rule, f.path, f.fingerprint()) not in baseline]
    suppressed = len(findings) - len(fresh)

    for f in fresh:
        print(f.render())
    tail = (f"pluslint[tokens]: {len(files)} file(s), "
            f"{len(fresh)} finding(s)")
    if suppressed:
        tail += f", {suppressed} baselined"
    print(tail, file=sys.stderr)
    return 1 if fresh else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
