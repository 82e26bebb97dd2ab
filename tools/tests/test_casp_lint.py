"""Self-tests for tools/casp_lint.py: the whole-tree library-has-caller
rule on a temporary tree with one orphan header and one included header,
the directories the no-triple-gather rule covers, and where a
jobspec-field-has-caller reader may live."""

import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import casp_lint  # noqa: E402

FILES = {
    # Included by a tool: has a caller.
    "src/lib/used.hpp": "#pragma once\n",
    "src/lib/used.cpp": '#include "lib/used.hpp"\n',
    # Included only by its own .cpp, a test and a comment: an orphan.
    "src/lib/orphan.hpp": "#pragma once\n",
    "src/lib/orphan.cpp": '#include "lib/orphan.hpp"\n',
    "tests/lib/test_orphan.cpp": '#include "lib/orphan.hpp"\n',
    "tools/app.cpp": ('#include "lib/used.hpp"\n'
                      '// #include "lib/orphan.hpp"\n'),
    # An orphan the header itself waives.
    "src/lib/waived.hpp": ("// casp-lint: allow-file(library-has-caller)\n"
                           "#pragma once\n"),
}


def lint_tree(files, lint_file=None):
    """library-has-caller over `files`, or every rule on the one file
    `lint_file` of the tree."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for rel, text in files.items():
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_text(text)
        linter = casp_lint.Linter(root)
        if lint_file is None:
            linter.check_library_has_caller()
        else:
            linter.lint_file(root / lint_file)
        return linter.errors


class LibraryHasCallerTest(unittest.TestCase):
    def test_orphan_header_fires_and_included_header_does_not(self):
        errors = lint_tree(FILES)
        self.assertEqual(len(errors), 1, errors)
        self.assertTrue(errors[0].startswith("src/lib/orphan.hpp:1: "
                                             "[library-has-caller]"),
                        errors[0])

    def test_a_caller_under_e2ebench_counts(self):
        files = dict(FILES)
        files["e2ebench/main.cpp"] = '#include "lib/orphan.hpp"\n'
        self.assertEqual(lint_tree(files), [])


class NoTripleGatherScopeTest(unittest.TestCase):
    CODE = ("CscMat f(vmpi::Comm& c, TripleMat t) {\n"
            "  t.entries() = c.allgather_vec<Triple>(t.entries());\n"
            "  return CscMat::from_triples(std::move(t));\n"
            "}\n")

    def rule_lines(self, rel):
        linter = casp_lint.Linter(Path("."))
        linter.lint_text(rel, self.CODE)
        return [int(e.split(":")[1]) for e in linter.errors
                if "[no-triple-gather]" in e]

    def test_fires_where_distributed_blocks_are_gathered(self):
        for rel in ("src/grid/dist.cpp", "src/summa/batched.cpp",
                    "src/svc/server.cpp", "src/apps/mcl.cpp"):
            self.assertEqual(self.rule_lines(rel), [2, 3], rel)

    def test_silent_elsewhere(self):
        for rel in ("src/apps/triangle.cpp", "src/ckpt/redistribute.cpp",
                    "src/sparse/csc_mat.cpp", "tests/grid/test_dist.cpp"):
            self.assertEqual(self.rule_lines(rel), [], rel)


class JobSpecFieldHasCallerScopeTest(unittest.TestCase):
    FILES = {
        "src/svc/jobspec.hpp": ("#pragma once\n"
                                "struct JobSpec {\n"
                                "  int in_src = 0;\n"
                                "  int in_tools = 0;\n"
                                "  int in_e2ebench = 0;\n"
                                "  int only_tests = 0;\n"
                                "  int only_own_cpp = 0;\n"
                                "  int only_comments = 0;\n"
                                "  int only_other_receivers = 0;\n"
                                "  void validate() const;\n"
                                "};\n"),
        "src/svc/server.cpp": ("void f(JobRecord& rec) {\n"
                               "  use(rec.spec.in_src);\n"
                               "  // spec.only_comments\n"
                               "  use(opts.only_other_receivers);\n"
                               "}\n"),
        "tools/cli.cpp": "void g(JobSpec& spec) { spec.in_tools = 1; }\n",
        "e2ebench/src/w.cpp": ("void h(JobSpec* shaped_spec) {\n"
                               "  shaped_spec->in_e2ebench = 2;\n"
                               "}\n"),
        "tests/svc/t.cpp": "void t(JobSpec& spec) { spec.only_tests = 3; }\n",
        "src/svc/jobspec.cpp": ("JobSpec k(JobSpec spec) {\n"
                                "  spec.only_own_cpp = 4;\n"
                                "  return spec;\n"
                                "}\n"),
    }

    def fired(self):
        errors = lint_tree(self.FILES, lint_file="src/svc/jobspec.hpp")
        return sorted(int(e.split(":")[1]) for e in errors
                      if "[jobspec-field-has-caller]" in e)

    def test_readers_under_src_tools_and_e2ebench_count(self):
        # only_tests, only_own_cpp, only_comments, only_other_receivers.
        self.assertEqual(self.fired(), [6, 7, 8, 9])

    def test_a_program_reader_silences_the_rule(self):
        files = dict(self.FILES)
        files["tools/more.cpp"] = (
            "void m(JobRecord& job) {\n"
            "  job.spec.only_tests = job.spec.only_own_cpp +\n"
            "      job.spec.only_comments + job.spec.only_other_receivers;\n"
            "}\n")
        self.assertEqual(lint_tree(files, lint_file="src/svc/jobspec.hpp"),
                         [])


if __name__ == "__main__":
    unittest.main()
