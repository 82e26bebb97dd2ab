#!/usr/bin/env python3
"""casp_lint — static enforcement of repo-wide C++ invariants.

The compiler cannot see these rules and clang-tidy is not guaranteed to be
installed in the reference environment, so this gate runs as a tier-1 CTest
test (see tests/CMakeLists.txt). Rules:

  new-delete      No `new` / `delete` expressions anywhere. The codebase owns
                  memory exclusively through containers and RAII; placement
                  new (`new (addr) T`) is permitted for arena-style code.
  threading       No std::thread / raw mutex / condition_variable outside
                  src/vmpi/. All parallelism must flow through the virtual
                  runtime so the CollectiveChecker and deadlock watchdog see
                  every interaction. (Applies to src/; tests may coordinate
                  with rank threads directly.)
  cast-pairing    Every `reinterpret_cast` must be paired with a
                  `static_assert(std::is_trivially_copyable_v<...>)` in the
                  same scope (heuristic: within the preceding 40 lines) —
                  byte-punning a non-trivially-copyable type through the
                  mailbox is undefined behavior the sanitizers can miss.
  payload-ownership
                  In any file that handles shared `Payload` / `CscView` wire
                  buffers, no `const_cast`. Received arrays are borrowed from
                  a refcounted buffer that other ranks (and possibly the
                  sender) still read, so casting away const is a cross-rank
                  data race. Copy out first (CscView::materialize(),
                  Payload::release_or_copy()). reinterpret_cast on those
                  borrowed arrays additionally falls under cast-pairing: it
                  must carry the trivially-copyable static_assert.
  pragma-once     Every header's first non-comment line is `#pragma once`.
  include-order   Within a contiguous `#include` block, system includes
                  (<...>) precede project includes ("..."), and each group
                  is lexicographically sorted.
  empty-catch     No empty `catch` body for MemoryError or
                  TransientCommError. Both exceptions carry recovery
                  obligations — re-batching / retry / classification — so
                  silently swallowing one hides a budget overrun or a
                  dropped message. Handle it (retry, re-batch, rethrow,
                  record) or let it propagate to vmpi::run's classifier.
  comm-compat     The byte-vector Comm wrappers (send_bytes, recv_bytes,
                  bcast_bytes, ibcast_bytes, bcast_vec, allgather_bytes,
                  alltoall_bytes) were removed from Comm; this rule keeps
                  them from coming back anywhere — tests included. All
                  code uses the payload-first surface (send_payload /
                  Payload::copy_of, recv_payload, bcast_payload,
                  allgather_vec, ...); tests that want a typed broadcast
                  use testing::bcast_typed from tests/test_util.hpp.
  jobspec-single-source
                  SummaOptions is a thin view derived from svc::JobSpec
                  (JobSpec::summa_options()). In src/ and tools/, outside
                  src/svc/ itself, constructing a fresh SummaOptions
                  (`SummaOptions o;` / `SummaOptions{...}`) is forbidden —
                  build a JobSpec and derive the view, so every knob stays
                  serializable, quota-checkable and covered by the one job
                  API. Copying an existing value (`SummaOptions b = a;`)
                  stays allowed: the batching loop and MCL iterations
                  specialize a caller-provided view per step. tests/,
                  bench/ and examples/ are exempt (they exercise the
                  library layer directly).
  ckpt-atomic-write
                  In src/ckpt/, every file-writing open (std::ofstream,
                  std::fstream, fopen) must write to the kTmpSuffix temp
                  path — the atomic-write protocol is tmp + flush +
                  rename, so a reader can never observe a torn final
                  checkpoint file. Opening a final path directly defeats
                  the crash-safety the subsystem exists to provide. The
                  open expression must mention kTmpSuffix on the same
                  line (route writes through atomic_write_file).
  sparse-subview-pack
                  In the sparse-exchange packer (src/**/sparse_comm.*),
                  no `Payload::copy_of` or `.materialize(` — every reply
                  the sender builds must carry block bytes as
                  `Payload::subview` handles of the already-packed block
                  (descriptors may be built fresh with `Payload::wrap`).
                  A deep copy here silently voids the zero-copy send
                  guarantee that bench_sparse_exchange gates on.
  rank-divergent-collective
                  In src/, no collective call (barrier, bcast*/ibcast*,
                  allreduce*, allgather*, alltoall*, reduce_to_root,
                  split, bcast_wait) lexically inside an `if` whose
                  condition mentions a rank — a collective only some
                  ranks enter is the canonical SPMD deadlock (every rank
                  must participate). Intentional sub-communicator use is
                  allowlisted with `// lint: collective-ok` on the same
                  or preceding line. The `else` branch of a rank guard
                  counts too: it is equally rank-divergent.
  failure-kind-classified
                  In src/, every FailureReport kind string assigned
                  (`kind = "<name>"`) must have an entry in the
                  supervisor's recoverable/non-recoverable classification
                  table (kKindTable in src/vmpi/runtime.cpp). The table is
                  the supervisor's single source of truth: an unclassified
                  kind silently falls through recoverable_failure() as
                  non-recoverable, so a fault class someone meant to be
                  retried would quietly stop being retried. Comparisons
                  (`kind == "..."`) are reads, not introductions, and do
                  not count.
  health-transition-classified
                  In src/, every RankHealth state write
                  (`... = RankHealth::k<State>`) must happen inside
                  RankPool::transition — the single write site that
                  validates the membership state machine's legal edges
                  (alive->suspect/dead, suspect->alive/dead,
                  dead->probation, probation->alive/dead/probation/
                  quarantined; quarantine terminal). A bare assignment
                  anywhere else can fabricate an illegal edge — e.g.
                  resurrect a quarantined flapper straight to alive,
                  skipping the probation handshake. Comparisons
                  (`== / !=`) are reads and do not count, and the
                  whole-vector construction reset
                  `health_.assign(n, RankHealth::kAlive)` (before any
                  edge exists) stays allowed: it carries no `=` into the
                  enum token.
  stage-schedule-single-source
                  In src/, outside src/vmpi/, the calls that post and
                  complete the SUMMA stage messages (`ibcast_payload(`,
                  `bcast_wait(`, `isparse_exchange(`, `sparse_wait(`)
                  appear only in src/summa/stages.cpp. StageStream is the
                  one stage schedule the numeric and symbolic passes
                  share; a second hand-written loop drifts from it (its
                  own prefetch order, its own phase spans) and a new way
                  to fetch A belongs inside StageStream, not beside it.
  c-layout-from-batchinfo
                  In src/apps/ and src/svc/, no `a_style_col_range(`. At
                  l > 1 batched_summa3d cuts C's columns by Symbolic3D's
                  counts (the fiber split), so C is A-style only in its
                  rows; a consumer that recomputes its columns from the
                  part_low layout reads the wrong ones. Take them from
                  the pieces' BatchInfo or from BatchedResult::c.cols.
  no-triple-gather
                  In src/grid/, src/summa/, src/svc/ and src/apps/mcl.cpp,
                  no `allgather_vec<Triple>` and no `from_triples(`. A
                  distributed matrix is assembled from its blocks' CSC
                  wire images and origins (assemble_blocks, gather_dist),
                  which places sorted blocks without a sort; shipping
                  24-byte triples and sorting all of them again costs
                  more bytes and an O(nnz log nnz) sort on every rank.
                  Building a matrix from triples that are not blocks of
                  a distributed one (an input file) is waived in place.
  library-has-caller
                  Every src/**/*.hpp is #included by some C++ file under
                  src/, tools/, bench/, examples/ or e2ebench/ other than
                  its own .cpp. Tests do not count: a header only tests
                  include is library code no program runs, which costs
                  review, build and sanitizer time without serving the
                  system. Wire it into a program or delete it. This rule
                  looks at the whole tree at once; waive it with
                  allow-file in the header.
  jobspec-field-has-caller
                  Every data member of `struct JobSpec`
                  (src/svc/jobspec.hpp) is read or set as a spec field
                  (`spec.<field>`, `job.spec.<field>`, `spec-><field>`,
                  any receiver whose name ends in "spec") in some C++ file
                  under src/, tools/ or e2ebench/ other than
                  src/svc/jobspec.*. The spec's own JSON and view code
                  and tests do not count: a field only they touch is a
                  knob no program sets, which every spec, report and
                  review still pays for. Wire it into a program or
                  delete it. The callers come from the whole tree.

Waivers (use sparingly, justify in a comment on the same line):
  // casp-lint: allow(<rule>)        — waives <rule> on this or next line
  // casp-lint: allow-file(<rule>)   — waives <rule> for the whole file
                                       (must appear in the first 40 lines)

Exit status is nonzero if any violation is found.
"""

import argparse
import re
import sys
from pathlib import Path

CXX_DIRS = ("src", "tools", "tests", "bench", "examples")
CXX_EXTS = (".hpp", ".cpp")

ALLOW_LINE_RE = re.compile(r"casp-lint:\s*allow\(([a-z-]+)\)")
ALLOW_FILE_RE = re.compile(r"casp-lint:\s*allow-file\(([a-z-]+)\)")

THREADING_TOKENS = re.compile(
    r"std::(thread|jthread|mutex|recursive_mutex|shared_mutex|timed_mutex|"
    r"condition_variable|condition_variable_any|lock_guard|unique_lock|"
    r"scoped_lock|shared_lock)\b"
)

# `new` expressions: allow placement new `new (addr) T`, flag the rest.
NEW_RE = re.compile(r"\bnew\b(?!\s*\()")
# `delete` expressions: `delete p` / `delete[] p`. Deleted functions
# (`= delete`) and `operator delete` are filtered by context.
DELETE_RE = re.compile(r"\bdelete\b")
DELETE_OK_BEFORE = re.compile(r"(=\s*|operator\s*)$")

REINTERPRET_RE = re.compile(r"\breinterpret_cast\b")
TRIVIAL_RE = re.compile(r"is_trivially_copyable")
CAST_SCOPE_LINES = 40

CONST_CAST_RE = re.compile(r"\bconst_cast\b")
PAYLOAD_TYPE_RE = re.compile(r"\b(Payload|CscView)\b")

# Deep-copy constructions banned in the sparse-exchange packer: the only
# sanctioned ways to put block bytes on the wire there are subview handles
# of the packed block (descriptors may be wrapped fresh).
SPARSE_DEEP_COPY_RE = re.compile(r"\bPayload::copy_of\s*\(|\.\s*materialize\s*\(")

# The stage-schedule communication calls and the one file allowed to make
# them outside the runtime.
STAGE_SCHEDULE_CALL_RE = re.compile(
    r"\b(ibcast_payload|bcast_wait|isparse_exchange|sparse_wait)\s*\("
)
STAGE_SCHEDULE_FILE = "src/summa/stages.cpp"

# C's column layout: consumers of batched_summa3d's output, and the one
# helper that would recompute it from the part_low layout.
C_LAYOUT_DIRS = ("src/apps/", "src/svc/")
A_STYLE_COL_RE = re.compile(r"\ba_style_col_range\s*\(")

# Sort-based assembly of distributed blocks: where C and MCL's iterate
# are gathered, and the calls that would ship and sort triples again.
TRIPLE_GATHER_DIRS = ("src/grid/", "src/summa/", "src/svc/")
TRIPLE_GATHER_FILES = ("src/apps/mcl.cpp",)
TRIPLE_GATHER_RE = re.compile(
    r"\ballgather_vec\s*<\s*Triple\s*>|\bfrom_triples\s*\(")

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+([<"][^>"]+[>"])')

# Where a library header's caller may live (tests/ deliberately absent),
# and a project include, read on comment-stripped text so a commented-out
# include is no caller.
CALLER_DIRS = ("src", "tools", "bench", "examples", "e2ebench")
PROJECT_INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')

# JobSpec's data members, and where a reader of one may live (its own
# files and tests/ deliberately absent). A field is read or set through a
# receiver named like a spec: spec.f, rec.spec.f, shaped_spec->f.
JOBSPEC_HEADER = "src/svc/jobspec.hpp"
JOBSPEC_OWN_FILES = ("src/svc/jobspec.hpp", "src/svc/jobspec.cpp")
FIELD_CALLER_DIRS = ("src", "tools", "e2ebench")
JOBSPEC_STRUCT_RE = re.compile(r"\bstruct\s+JobSpec\s*\{")
SPEC_FIELD_RE = re.compile(r"\b\w*spec\s*(?:\.|->)\s*(\w+)", re.IGNORECASE)
MEMBER_NAME_RE = re.compile(r"(\w+)\s*(?:=[^=].*)?$", re.DOTALL)
ACCESS_LABEL_RE = re.compile(r"^\s*(?:public|private|protected)\s*:")

# catch (const MemoryError& e) { <whitespace only> } — after strip_code()
# a comment-only body is whitespace too, which is intended: a comment is
# not a recovery action.
EMPTY_CATCH_RE = re.compile(
    r"\bcatch\s*\(\s*(?:const\s+)?[\w:]*\b"
    r"(MemoryError|TransientCommError)\s*[&\s]*\w*\s*\)\s*\{\s*\}"
)

COMM_COMPAT_RE = re.compile(
    r"\b(send_bytes|recv_bytes|bcast_bytes|ibcast_bytes|bcast_vec|"
    r"allgather_bytes|alltoall_bytes)\s*[(<]"
)

# A fresh SummaOptions construction: declaration with default init or a
# braced temporary. Copy-initialization from an existing value
# (`SummaOptions b = a;`) deliberately does not match.
JOBSPEC_SINGLE_SOURCE_RE = re.compile(
    r"(?<!struct )\bSummaOptions\s*\{|\bSummaOptions\s+\w+\s*[;{]"
)

# File-writing opens in src/ckpt/: an ofstream/fstream construction or
# .open(...), or a C fopen. Plain `std::ifstream` reads are fine.
CKPT_WRITE_OPEN_RE = re.compile(
    r"\bstd::(?:ofstream|fstream)\b|\bfopen\s*\("
)
CKPT_TMP_TOKEN_RE = re.compile(r"\bkTmpSuffix\b")

# A FailureReport kind introduction: `kind = "<name>"` (assignment, not
# the `==`/`!=` comparisons, which only read an existing kind). Scanned on
# comment-stripped-but-string-preserving text, so prose in comments never
# trips it.
KIND_ASSIGN_RE = re.compile(r'\bkind\s*=(?!=)\s*"([a-z_]+)"')
# One entry of the supervisor's classification table:
# {"<kind>", true|false}.
KIND_TABLE_ENTRY_RE = re.compile(r'\{\s*"([a-z_]+)"\s*,\s*(?:true|false)\s*\}')
KIND_TABLE_NAME = "kKindTable"
KIND_TABLE_FILE = "src/vmpi/runtime.cpp"

# A RankHealth state write: `= RankHealth::k<State>` where the `=` is a
# plain assignment (the lookarounds drop `==`, `!=`, `<=`, `>=`). The
# `.assign(n, RankHealth::kAlive)` construction reset never matches: the
# enum token there follows a comma, not an `=`.
HEALTH_ASSIGN_RE = re.compile(r"(?<![=!<>])=(?!=)\s*RankHealth::k\w+")
# The one sanctioned write site; its brace-matched body is exempt.
TRANSITION_DEF_RE = re.compile(r"\bRankPool::transition\s*\(")

# A collective call on a Comm (or sub-Comm): receiver-dotted so plain
# helper functions named e.g. `barrier_us` don't trip the rule.
COLLECTIVE_CALL_RE = re.compile(
    r"[.>]\s*(barrier|bcast_\w+|ibcast_\w+|bcast_wait|allreduce(?:_\w+)?|"
    r"allgather_\w+|alltoall_\w+|reduce_to_root|split)\s*\("
)
# An `if` condition that branches on a rank: the identifier `rank`, any
# *_rank/rank_* variable, or a .rank()/->rank() accessor.
RANK_COND_RE = re.compile(r"\b\w*rank\w*\b|[.>]\s*rank\s*\(")
COLLECTIVE_OK_RE = re.compile(r"lint:\s*collective-ok")


def strip_code(text: str, keep_strings: bool = False) -> str:
    """Blank out comments — and, unless keep_strings, string and char
    literals — preserving line structure, so token scans don't trip on
    prose or paths. keep_strings=True serves the rules that inspect
    literal contents (failure-kind-classified) but must still ignore
    commented-out code."""
    out = []
    i, n = 0, len(text)
    mode = "code"  # code | line_comment | block_comment | string | char | raw
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode == "code":
            if c == "/" and nxt == "/":
                mode = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                mode = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == "R" and nxt == '"':
                m = re.match(r'R"([^(\s]*)\(', text[i:])
                if m:
                    raw_delim = ")" + m.group(1) + '"'
                    mode = "raw"
                    out.append(m.group(0) if keep_strings else " " * m.end())
                    i += m.end()
                    continue
            if c == '"':
                mode = "string"
                out.append('"' if keep_strings else " ")
                i += 1
                continue
            if c == "'":
                mode = "char"
                out.append("'" if keep_strings else " ")
                i += 1
                continue
            out.append(c)
            i += 1
        elif mode == "line_comment":
            if c == "\n":
                mode = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif mode == "block_comment":
            if c == "*" and nxt == "/":
                mode = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif mode == "string":
            if c == "\\":
                out.append(text[i:i + 2] if keep_strings else "  ")
                i += 2
            elif c == '"':
                mode = "code"
                out.append('"' if keep_strings else " ")
                i += 1
            else:
                out.append(c if (keep_strings or c == "\n") else " ")
                i += 1
        elif mode == "char":
            if c == "\\":
                out.append(text[i:i + 2] if keep_strings else "  ")
                i += 2
            elif c == "'":
                mode = "code"
                out.append("'" if keep_strings else " ")
                i += 1
            else:
                out.append(c if (keep_strings or c == "\n") else " ")
                i += 1
        elif mode == "raw":
            if text.startswith(raw_delim, i):
                mode = "code"
                out.append(raw_delim if keep_strings else " " * len(raw_delim))
                i += len(raw_delim)
            else:
                out.append(c if (keep_strings or c == "\n") else " ")
                i += 1
    return "".join(out)


class Linter:
    def __init__(self, root: Path):
        self.root = root
        self.errors = []
        self._repo_kind_table = None  # lazily parsed from KIND_TABLE_FILE
        self._spec_fields_used = None  # lazily scanned FIELD_CALLER_DIRS

    def error(self, rel: str, line_no: int, rule: str, msg: str):
        self.errors.append(f"{rel}:{line_no}: [{rule}] {msg}")

    # -- per-file driver ----------------------------------------------------

    def lint_file(self, path: Path):
        text = path.read_text(encoding="utf-8", errors="replace")
        self.lint_text(path.relative_to(self.root).as_posix(), text)

    def lint_text(self, rel: str, text: str):
        """Run every rule on `text` as if it lived at repo-relative `rel`.
        Split out from lint_file so the --self-test fixtures (which must NOT
        be real .cpp files, or the main gate would scan them) lint under a
        pretend path."""
        raw_lines = text.splitlines()
        code_text = strip_code(text)
        code_lines = code_text.splitlines()

        file_waivers = set()
        for line in raw_lines[:CAST_SCOPE_LINES]:
            for m in ALLOW_FILE_RE.finditer(line):
                file_waivers.add(m.group(1))

        def waived(rule: str, idx: int) -> bool:
            if rule in file_waivers:
                return True
            for probe in (idx, idx - 1):
                if 0 <= probe < len(raw_lines):
                    for m in ALLOW_LINE_RE.finditer(raw_lines[probe]):
                        if m.group(1) == rule:
                            return True
            return False

        in_src = rel.startswith("src/")
        in_vmpi = rel.startswith("src/vmpi/")

        self.check_new_delete(rel, code_lines, waived)
        if in_src and not in_vmpi:
            self.check_threading(rel, code_lines, waived)
        self.check_comm_compat(rel, code_lines, waived)
        if (in_src or rel.startswith("tools/")) and not rel.startswith(
                "src/svc/"):
            self.check_jobspec_single_source(rel, code_lines, waived)
        if rel.startswith("src/ckpt/"):
            self.check_ckpt_atomic_write(rel, code_lines, waived)
        if in_src:
            self.check_rank_divergent_collective(rel, code_text, raw_lines,
                                                 waived)
            self.check_failure_kind_classified(
                rel, strip_code(text, keep_strings=True), waived)
            self.check_health_transition_classified(rel, code_text, waived)
        if in_src and not in_vmpi and rel != STAGE_SCHEDULE_FILE:
            self.check_stage_schedule_single_source(rel, code_lines, waived)
        if rel.startswith(C_LAYOUT_DIRS):
            self.check_c_layout_from_batchinfo(rel, code_lines, waived)
        if rel.startswith(TRIPLE_GATHER_DIRS) or rel in TRIPLE_GATHER_FILES:
            self.check_no_triple_gather(rel, code_lines, waived)
        self.check_cast_pairing(rel, code_lines, waived)
        self.check_empty_catch(rel, code_text, waived)
        self.check_payload_ownership(rel, code_lines, waived)
        if in_src and "sparse_comm" in rel:
            self.check_sparse_subview_pack(rel, code_lines, waived)
        if rel.endswith(".hpp"):
            self.check_pragma_once(rel, code_lines, waived)
        self.check_include_order(rel, raw_lines, waived)
        if rel == JOBSPEC_HEADER:
            self.check_jobspec_field_has_caller(rel, code_text, waived)

    # -- rules --------------------------------------------------------------

    def check_new_delete(self, rel, code_lines, waived):
        for idx, line in enumerate(code_lines):
            if NEW_RE.search(line) and not waived("new-delete", idx):
                self.error(rel, idx + 1, "new-delete",
                           "`new` expression — use containers/RAII "
                           "(placement new is allowed: `new (addr) T`)")
            for m in DELETE_RE.finditer(line):
                if DELETE_OK_BEFORE.search(line[:m.start()]):
                    continue  # `= delete` / `operator delete`
                if not waived("new-delete", idx):
                    self.error(rel, idx + 1, "new-delete",
                               "`delete` expression — use containers/RAII")

    def check_threading(self, rel, code_lines, waived):
        for idx, line in enumerate(code_lines):
            m = THREADING_TOKENS.search(line)
            if m and not waived("threading", idx):
                self.error(rel, idx + 1, "threading",
                           f"std::{m.group(1)} outside src/vmpi/ — all "
                           "parallelism must go through the virtual runtime")

    def check_comm_compat(self, rel, code_lines, waived):
        for idx, line in enumerate(code_lines):
            m = COMM_COMPAT_RE.search(line)
            if m and not waived("comm-compat", idx):
                self.error(
                    rel, idx + 1, "comm-compat",
                    f"{m.group(1)} is a removed byte-vector compat wrapper "
                    "— use the payload-first Comm API (send_payload/"
                    "recv_payload/bcast_payload/allgather_vec/...; tests: "
                    "testing::bcast_typed)")

    def check_jobspec_single_source(self, rel, code_lines, waived):
        for idx, line in enumerate(code_lines):
            if JOBSPEC_SINGLE_SOURCE_RE.search(line) and not waived(
                    "jobspec-single-source", idx):
                self.error(
                    rel, idx + 1, "jobspec-single-source",
                    "fresh SummaOptions construction outside src/svc/ — "
                    "build a svc::JobSpec and derive the view with "
                    "JobSpec::summa_options() (copying an existing value "
                    "is fine)")

    def check_ckpt_atomic_write(self, rel, code_lines, waived):
        for idx, line in enumerate(code_lines):
            if not CKPT_WRITE_OPEN_RE.search(line):
                continue
            if CKPT_TMP_TOKEN_RE.search(line):
                continue
            if not waived("ckpt-atomic-write", idx):
                self.error(
                    rel, idx + 1, "ckpt-atomic-write",
                    "file-writing open in src/ckpt/ that does not target "
                    "the kTmpSuffix temp path — checkpoint files must be "
                    "written atomically (tmp + flush + rename); route "
                    "writes through atomic_write_file")

    def check_rank_divergent_collective(self, rel, code_text, raw_lines,
                                        waived):
        regions = self._rank_guarded_regions(code_text)
        if not regions:
            return
        for m in COLLECTIVE_CALL_RE.finditer(code_text):
            if not any(lo <= m.start() < hi for lo, hi in regions):
                continue
            idx = code_text.count("\n", 0, m.start())
            ok = False
            for probe in (idx, idx - 1):
                if 0 <= probe < len(raw_lines) and COLLECTIVE_OK_RE.search(
                        raw_lines[probe]):
                    ok = True
            if ok or waived("rank-divergent-collective", idx):
                continue
            self.error(
                rel, idx + 1, "rank-divergent-collective",
                f"collective {m.group(1)}() inside a rank-guarded `if` — "
                "every rank must enter a collective, or only some ranks "
                "wait forever; hoist it out of the branch, or mark "
                "intentional sub-communicator use with "
                "`// lint: collective-ok`")

    @staticmethod
    def _rank_guarded_regions(code_text):
        """[start, end) character ranges of code lexically inside an
        `if (...rank...)` block, its brace-less statement, or the attached
        `else` block."""

        def matching(open_ch, close_ch, start):
            depth = 0
            for j in range(start, len(code_text)):
                if code_text[j] == open_ch:
                    depth += 1
                elif code_text[j] == close_ch:
                    depth -= 1
                    if depth == 0:
                        return j
            return len(code_text)

        def skip_ws(j):
            while j < len(code_text) and code_text[j] in " \t\n":
                j += 1
            return j

        regions = []
        for m in re.finditer(r"\bif\s*\(", code_text):
            paren_open = m.end() - 1
            paren_close = matching("(", ")", paren_open)
            if not RANK_COND_RE.search(code_text[paren_open:paren_close]):
                continue
            body = skip_ws(paren_close + 1)
            if body < len(code_text) and code_text[body] == "{":
                end = matching("{", "}", body)
                regions.append((body, end))
                after = skip_ws(end + 1)
                if code_text.startswith("else", after):
                    tail = skip_ws(after + 4)
                    if tail < len(code_text) and code_text[tail] == "{":
                        regions.append((tail, matching("{", "}", tail)))
                    # `else if (...)` is re-examined by its own `if` match.
            else:
                semi = code_text.find(";", body)
                regions.append(
                    (body, semi if semi != -1 else len(code_text)))
        return regions

    def _kind_table(self, code_with_strings):
        """Classification entries in scope for this file: a kKindTable the
        text defines itself (runtime.cpp, self-test fixtures), else the
        repo's table in src/vmpi/runtime.cpp, parsed once."""
        pos = code_with_strings.find(KIND_TABLE_NAME)
        if pos != -1:
            region = code_with_strings[pos:]
            end = region.find("};")
            if end != -1:
                region = region[:end]
            entries = {m.group(1)
                       for m in KIND_TABLE_ENTRY_RE.finditer(region)}
            if entries:
                return entries
        if self._repo_kind_table is None:
            self._repo_kind_table = set()
            table_path = self.root / KIND_TABLE_FILE
            if table_path.exists():
                text = strip_code(
                    table_path.read_text(encoding="utf-8", errors="replace"),
                    keep_strings=True)
                pos = text.find(KIND_TABLE_NAME)
                if pos != -1:
                    region = text[pos:]
                    end = region.find("};")
                    if end != -1:
                        region = region[:end]
                    self._repo_kind_table = {
                        m.group(1)
                        for m in KIND_TABLE_ENTRY_RE.finditer(region)
                    }
        return self._repo_kind_table

    def check_failure_kind_classified(self, rel, code_with_strings, waived):
        matches = list(KIND_ASSIGN_RE.finditer(code_with_strings))
        if not matches:
            return
        table = self._kind_table(code_with_strings)
        for m in matches:
            kind = m.group(1)
            if kind in table:
                continue
            idx = code_with_strings.count("\n", 0, m.start())
            if waived("failure-kind-classified", idx):
                continue
            self.error(
                rel, idx + 1, "failure-kind-classified",
                f'FailureReport kind "{kind}" has no entry in '
                f"{KIND_TABLE_NAME} ({KIND_TABLE_FILE}) — "
                "recoverable_failure() silently treats unlisted kinds as "
                "non-recoverable; add it to the classification table")

    @staticmethod
    def _transition_bodies(code_text):
        """[start, end) character ranges of RankPool::transition definition
        bodies — the sanctioned RankHealth write site. Declarations and the
        unqualified calls inside pool.cpp don't match the qualified name."""
        regions = []
        for m in TRANSITION_DEF_RE.finditer(code_text):
            brace = code_text.find("{", m.end())
            if brace == -1:
                continue
            depth = 0
            end = len(code_text)
            for j in range(brace, len(code_text)):
                if code_text[j] == "{":
                    depth += 1
                elif code_text[j] == "}":
                    depth -= 1
                    if depth == 0:
                        end = j
                        break
            regions.append((brace, end))
        return regions

    def check_health_transition_classified(self, rel, code_text, waived):
        matches = list(HEALTH_ASSIGN_RE.finditer(code_text))
        if not matches:
            return
        bodies = self._transition_bodies(code_text)
        for m in matches:
            if any(lo <= m.start() < hi for lo, hi in bodies):
                continue
            idx = code_text.count("\n", 0, m.start())
            if waived("health-transition-classified", idx):
                continue
            self.error(
                rel, idx + 1, "health-transition-classified",
                "RankHealth state written outside RankPool::transition — "
                "the transition function is the single write site that "
                "validates the membership state machine's legal edges; a "
                "bare assignment can fabricate an illegal edge (e.g. "
                "resurrect a quarantined rank past the probation "
                "handshake)")

    def check_stage_schedule_single_source(self, rel, code_lines, waived):
        for idx, line in enumerate(code_lines):
            m = STAGE_SCHEDULE_CALL_RE.search(line)
            if m and not waived("stage-schedule-single-source", idx):
                self.error(
                    rel, idx + 1, "stage-schedule-single-source",
                    f"{m.group(1)}( outside {STAGE_SCHEDULE_FILE} — the "
                    "SUMMA stage schedule lives in StageStream; take the "
                    "stage blocks from StageStream::next")

    def check_c_layout_from_batchinfo(self, rel, code_lines, waived):
        for idx, line in enumerate(code_lines):
            if (A_STYLE_COL_RE.search(line)
                    and not waived("c-layout-from-batchinfo", idx)):
                self.error(
                    rel, idx + 1, "c-layout-from-batchinfo",
                    "a_style_col_range( in a consumer of C — at l > 1 the "
                    "fiber split cuts C's columns by work, not part_low; "
                    "take them from BatchInfo or BatchedResult::c.cols")

    def check_no_triple_gather(self, rel, code_lines, waived):
        for idx, line in enumerate(code_lines):
            m = TRIPLE_GATHER_RE.search(line)
            if m and not waived("no-triple-gather", idx):
                self.error(
                    rel, idx + 1, "no-triple-gather",
                    f"{m.group(0).strip()} assembles distributed blocks by "
                    "sorting triples — allgather the blocks' CSC images "
                    "and place them with assemble_blocks (grid/dist.hpp)")

    def check_cast_pairing(self, rel, code_lines, waived):
        for idx, line in enumerate(code_lines):
            if not REINTERPRET_RE.search(line):
                continue
            lo = max(0, idx - CAST_SCOPE_LINES)
            window = code_lines[lo:idx + 1]
            if any(TRIVIAL_RE.search(w) for w in window):
                continue
            if not waived("cast-pairing", idx):
                self.error(
                    rel, idx + 1, "cast-pairing",
                    "reinterpret_cast without a nearby static_assert("
                    "std::is_trivially_copyable_v<...>) in the same scope")

    def check_empty_catch(self, rel, code_text, waived):
        # Multiline scan: `catch` clauses wrap freely, so match on the
        # whole stripped text and map the offset back to a line number.
        for m in EMPTY_CATCH_RE.finditer(code_text):
            idx = code_text.count("\n", 0, m.start())
            if not waived("empty-catch", idx):
                self.error(
                    rel, idx + 1, "empty-catch",
                    f"empty catch body for {m.group(1)} — this exception "
                    "carries a recovery obligation (retry / re-batch / "
                    "classify); handle it or let vmpi::run classify it")

    def check_payload_ownership(self, rel, code_lines, waived):
        if not any(PAYLOAD_TYPE_RE.search(line) for line in code_lines):
            return
        for idx, line in enumerate(code_lines):
            if CONST_CAST_RE.search(line) and not waived(
                    "payload-ownership", idx):
                self.error(
                    rel, idx + 1, "payload-ownership",
                    "const_cast in a file handling shared Payload/CscView "
                    "buffers — borrowed wire arrays are shared across ranks; "
                    "copy out (materialize()/release_or_copy()) before "
                    "mutating")

    def check_sparse_subview_pack(self, rel, code_lines, waived):
        for idx, line in enumerate(code_lines):
            if SPARSE_DEEP_COPY_RE.search(line) and not waived(
                    "sparse-subview-pack", idx):
                self.error(
                    rel, idx + 1, "sparse-subview-pack",
                    "payload deep copy in the sparse-exchange packer — "
                    "sends must ship Payload::subview handles of the "
                    "packed block (Payload::wrap for fresh descriptors); "
                    "a copy_of/materialize here breaks the zero-copy "
                    "guarantee bench_sparse_exchange gates on")

    def check_pragma_once(self, rel, code_lines, waived):
        for idx, line in enumerate(code_lines):
            stripped = line.strip()
            if not stripped:
                continue
            if stripped == "#pragma once":
                return
            if not waived("pragma-once", idx):
                self.error(rel, idx + 1, "pragma-once",
                           "first directive in a header must be #pragma once")
            return
        self.error(rel, 1, "pragma-once", "header lacks #pragma once")

    def check_include_order(self, rel, raw_lines, waived):
        block = []  # list of (idx, token)
        for idx in range(len(raw_lines) + 1):
            m = INCLUDE_RE.match(raw_lines[idx]) if idx < len(raw_lines) else None
            if m:
                block.append((idx, m.group(1)))
                continue
            if len(block) > 1:
                self._check_include_block(rel, block, waived)
            block = []

    def _check_include_block(self, rel, block, waived):
        seen_quote = False
        for idx, token in block:
            if token.startswith('"'):
                seen_quote = True
            elif seen_quote and not waived("include-order", idx):
                self.error(rel, idx + 1, "include-order",
                           f"system include {token} after a project include "
                           "in the same block")
        for style in ("<", '"'):
            group = [(idx, t) for idx, t in block if t.startswith(style)]
            for (idx_a, a), (idx_b, b) in zip(group, group[1:]):
                if a > b and not waived("include-order", idx_b):
                    self.error(rel, idx_b + 1, "include-order",
                               f"{b} breaks sort order (after {a})")

    def check_library_has_caller(self):
        includers = {}  # include path -> repo-relative files naming it
        for d in CALLER_DIRS:
            base = self.root / d
            if not base.is_dir():
                continue
            for path in (p for ext in CXX_EXTS for p in base.rglob(f"*{ext}")):
                text = path.read_text(encoding="utf-8", errors="replace")
                rel = path.relative_to(self.root).as_posix()
                for line in strip_code(text, keep_strings=True).splitlines():
                    m = PROJECT_INCLUDE_RE.match(line)
                    if m:
                        includers.setdefault(m.group(1), set()).add(rel)
        src = self.root / "src"
        if not src.is_dir():
            return
        for header in sorted(src.rglob("*.hpp")):
            rel = header.relative_to(self.root).as_posix()
            own_cpp = rel[:-len(".hpp")] + ".cpp"
            key = header.relative_to(src).as_posix()
            if includers.get(key, set()) - {own_cpp}:
                continue
            head = header.read_text(encoding="utf-8",
                                    errors="replace").splitlines()
            if any(m.group(1) == "library-has-caller"
                   for line in head[:CAST_SCOPE_LINES]
                   for m in ALLOW_FILE_RE.finditer(line)):
                continue
            self.error(rel, 1, "library-has-caller",
                       f'nothing under {", ".join(d + "/" for d in CALLER_DIRS)}'
                       f' includes "{key}" (its own .cpp and tests do not '
                       "count) — wire it into a program or delete it")

    @staticmethod
    def _jobspec_members(code_text):
        """(name, offset) of each data member of `struct JobSpec`: the
        struct body's top-level statements, ended by `;` or by the `}` of
        an inline member function, that declare no function."""
        m = JOBSPEC_STRUCT_RE.search(code_text)
        if not m:
            return []
        members = []
        depth, start = 0, m.end()
        blank = lambda x: " " * len(x.group())  # noqa: E731 — keeps offsets
        for i in range(m.end(), len(code_text)):
            c = code_text[i]
            if c == "{":
                depth += 1
                continue
            if c == "}":
                if depth == 0:
                    break  # the struct's closing brace
                depth -= 1
                # An inline function body ends its statement; a braced
                # initializer is followed by the member's `;`.
                if depth == 0 and not code_text[i + 1:].lstrip().startswith(
                        (";", ",")):
                    start = i + 1
                continue
            if c != ";" or depth != 0:
                continue
            # Access labels and braced initializers blanked, offsets kept.
            stmt = ACCESS_LABEL_RE.sub(blank, code_text[start:i])
            while "{" in stmt:
                stmt = re.sub(r"\{[^{}]*\}", blank, stmt)
            first = stmt.split()[0] if stmt.split() else ""
            if "(" not in stmt and first not in ("", "using", "static",
                                                 "friend", "enum", "struct",
                                                 "class"):
                name = MEMBER_NAME_RE.search(stmt)
                if name:
                    members.append((name.group(1), start + name.start(1)))
            start = i + 1
        return members

    def _spec_fields(self):
        if self._spec_fields_used is None:
            used = set()
            for d in FIELD_CALLER_DIRS:
                base = self.root / d
                if not base.is_dir():
                    continue
                for path in (p for ext in CXX_EXTS
                             for p in base.rglob(f"*{ext}")):
                    rel = path.relative_to(self.root).as_posix()
                    if rel in JOBSPEC_OWN_FILES:
                        continue
                    text = path.read_text(encoding="utf-8", errors="replace")
                    code = strip_code(text)
                    used.update(m.group(1)
                                for m in SPEC_FIELD_RE.finditer(code))
            self._spec_fields_used = used
        return self._spec_fields_used

    def check_jobspec_field_has_caller(self, rel, code_text, waived):
        used = self._spec_fields()
        for name, offset in self._jobspec_members(code_text):
            idx = code_text.count("\n", 0, offset)
            if name in used or waived("jobspec-field-has-caller", idx):
                continue
            self.error(rel, idx + 1, "jobspec-field-has-caller",
                       f"JobSpec::{name} is read or set nowhere under "
                       f'{", ".join(d + "/" for d in FIELD_CALLER_DIRS)} '
                       "outside src/svc/jobspec.* (tests do not count) — "
                       "wire it into a program or delete it")

    # -- entry --------------------------------------------------------------

    def run(self) -> int:
        files = []
        for d in CXX_DIRS:
            base = self.root / d
            if not base.is_dir():
                continue
            files.extend(p for ext in CXX_EXTS for p in base.rglob(f"*{ext}"))
        for path in sorted(files):
            self.lint_file(path)
        self.check_library_has_caller()
        if self.errors:
            for e in self.errors:
                print(e)
            print(f"casp_lint: {len(self.errors)} violation(s) in "
                  f"{len(files)} files", file=sys.stderr)
            return 1
        print(f"casp_lint: OK ({len(files)} files clean)")
        return 0


FIXTURE_RULES_RE = re.compile(r"lint-rules:\s*([a-z, -]+)")
FIXTURE_PATH_RE = re.compile(r"lint-path:\s*(src/\S+)")


def self_test(root: Path) -> int:
    """Lint the fixture corpus (tests/lint/fixtures/*.cpp.txt) under a
    pretend src/ path and compare against the `// expect-violation` line
    markers. Positive fixtures prove the rule fires where it must; negative
    fixtures prove the allowlist and benign shapes stay silent. Each
    fixture declares the rule(s) it exercises with a `// lint-rules: a,b`
    header line — errors from other rules are ignored, so a fixture only
    tests what it claims to. Fixtures without the header default to
    rank-divergent-collective (the original corpus). A `// lint-path:
    src/...` line lints the fixture under that path instead of
    src/<stem>, for rules scoped to a subdirectory."""
    fixtures = sorted((root / "tests" / "lint" / "fixtures").glob("*.cpp.txt"))
    if not fixtures:
        print("casp_lint --self-test: no fixtures found", file=sys.stderr)
        return 2
    failures = 0
    for path in fixtures:
        text = path.read_text(encoding="utf-8")
        expected = {
            idx + 1
            for idx, line in enumerate(text.splitlines())
            if "expect-violation" in line
        }
        rules = {"rank-divergent-collective"}
        m = FIXTURE_RULES_RE.search(text)
        if m:
            rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        pretend = FIXTURE_PATH_RE.search(text)
        linter = Linter(root)
        linter.lint_text(pretend.group(1) if pretend else f"src/{path.stem}",
                         text)
        got = {
            int(e.split(":")[1])
            for e in linter.errors
            if any(f"[{rule}]" in e for rule in rules)
        }
        if got == expected:
            print(f"self-test PASS {path.name} "
                  f"({len(expected)} expected violation(s))")
            continue
        failures += 1
        print(f"self-test FAIL {path.name}: expected lines "
              f"{sorted(expected)}, got {sorted(got)}")
        for e in linter.errors:
            print(f"  {e}")
    if failures:
        print(f"casp_lint --self-test: {failures} fixture(s) failed",
              file=sys.stderr)
        return 1
    print(f"casp_lint --self-test: OK ({len(fixtures)} fixtures)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--self-test", action="store_true",
                        help="lint the fixture corpus instead of the repo "
                             "and verify expected violations")
    args = parser.parse_args()
    root = Path(args.root).resolve()
    if not (root / "CMakeLists.txt").exists():
        print(f"casp_lint: {root} does not look like the repo root",
              file=sys.stderr)
        return 2
    if args.self_test:
        return self_test(root)
    return Linter(root).run()


if __name__ == "__main__":
    sys.exit(main())
