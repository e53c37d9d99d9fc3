// End-to-end tests for the tools/pfar_lint binary against the fixture tree
// in tests/lint_fixtures/: every seeded violation is detected with its rule
// id and file:line, every allow-comment suppresses, and configuration
// errors (bad allowlist, bad path, unknown rule) exit 2 instead of
// pretending the tree is clean.
//
// The binary path is injected by CMake as PFAR_LINT_BINARY and the fixture
// root as PFAR_LINT_FIXTURES.

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "temp_dir.hpp"

namespace fs = std::filesystem;

namespace {

class LintToolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = pfar::test_support::fresh_temp_dir("pfar_lint_tool_test");
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Runs pfar_lint with `args`, captures combined stdout+stderr into
  /// `output`, returns the exit code (-1 if the invocation itself failed).
  int run_lint(const std::string& args, std::string* output) {
    const fs::path out = dir_ / "lint_output.txt";
    const std::string cmd = std::string(PFAR_LINT_BINARY) + " " + args +
                            " > " + out.string() + " 2>&1";
    const int status = std::system(cmd.c_str());
    if (output) {
      std::ifstream in(out);
      std::ostringstream buf;
      buf << in.rdbuf();
      *output = buf.str();
    }
    if (status == -1) return -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  static std::string fixtures() { return PFAR_LINT_FIXTURES; }
  static std::string fixture_args() {
    return "--root " + fixtures() + " " + fixtures();
  }

  fs::path dir_;
};

TEST_F(LintToolTest, EverySeededViolationIsDetected) {
  std::string out;
  const int exit_code = run_lint(fixture_args(), &out);
  EXPECT_EQ(exit_code, 1) << out;
  // One (file:line, rule) probe per seeded violation. Paths are reported
  // relative to --root, so they are stable regardless of build location.
  const char* expected[] = {
      "src/core/unordered_iteration.cpp:10: [no-unordered-iteration]",
      "src/core/unordered_iteration.cpp:13: [no-unordered-iteration]",
      "src/core/wallclock.cpp:10: [no-wallclock-in-sim]",
      "src/core/wallclock.cpp:11: [no-wallclock-in-sim]",
      "src/core/pointer_ordering.cpp:14: [no-pointer-ordering]",
      "src/core/pointer_ordering.cpp:15: [no-pointer-ordering]",
      "src/core/contract_coverage.cpp:6: [contract-coverage]",
      "src/core/mutex_naming.cpp:10: [mutex-naming]",
      "src/core/mutex_naming.cpp:11: [mutex-naming]",
      "src/core/mutex_naming.cpp:16: [mutex-naming]",
  };
  for (const char* probe : expected) {
    EXPECT_NE(out.find(probe), std::string::npos)
        << "missing finding " << probe << " in:\n"
        << out;
  }
}

TEST_F(LintToolTest, MalformedSuppressionsAreFindings) {
  std::string out;
  const int exit_code = run_lint(fixture_args(), &out);
  EXPECT_EQ(exit_code, 1) << out;
  EXPECT_NE(out.find("src/core/bad_suppression.cpp:8: [suppression]"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("src/core/bad_suppression.cpp:10: [suppression]"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("unknown rule 'not-a-real-rule'"), std::string::npos)
      << out;
}

TEST_F(LintToolTest, AllowCommentsSuppressAndSuppressionsAreCounted) {
  // The *_allowed.cpp fixtures seed the same constructs as the violating
  // ones; with reasons attached the run over just those files is clean,
  // and the summary reports the suppression count rather than hiding it.
  std::string files;
  for (const char* f :
       {"unordered_iteration_allowed.cpp", "wallclock_allowed.cpp",
        "pointer_ordering_allowed.cpp", "contract_coverage_allowed.cpp",
        "mutex_naming_allowed.cpp"}) {
    files += " " + fixtures() + "/src/core/" + f;
  }
  std::string out;
  const int exit_code = run_lint("--root " + fixtures() + files, &out);
  EXPECT_EQ(exit_code, 0) << out;
  EXPECT_NE(out.find("0 finding(s)"), std::string::npos) << out;
  EXPECT_NE(out.find("7 suppressed"), std::string::npos) << out;
}

TEST_F(LintToolTest, RuleFilterRestrictsToOneRule) {
  std::string out;
  const int exit_code =
      run_lint("--rule mutex-naming " + fixture_args(), &out);
  EXPECT_EQ(exit_code, 1) << out;
  EXPECT_NE(out.find("[mutex-naming]"), std::string::npos) << out;
  EXPECT_EQ(out.find("[no-wallclock-in-sim]"), std::string::npos) << out;
  EXPECT_EQ(out.find("[contract-coverage]"), std::string::npos) << out;
}

TEST_F(LintToolTest, AllowlistDropsMatchingFindings) {
  const fs::path allow = dir_ / "allow.txt";
  std::ofstream(allow)
      << "src/core/mutex_naming.cpp mutex-naming fixture interop file\n"
      << "src/core/ no-wallclock-in-sim fixture timing files\n";
  std::string out;
  const int exit_code = run_lint(
      "--allowlist " + allow.string() + " " + fixture_args(), &out);
  EXPECT_EQ(exit_code, 1) << out;  // other rules still fire
  EXPECT_EQ(out.find("[mutex-naming]"), std::string::npos) << out;
  EXPECT_EQ(out.find("[no-wallclock-in-sim]"), std::string::npos) << out;
  EXPECT_NE(out.find("[no-pointer-ordering]"), std::string::npos) << out;
}

TEST_F(LintToolTest, UnknownRuleInAllowlistIsAConfigError) {
  const fs::path allow = dir_ / "allow.txt";
  std::ofstream(allow) << "src/ not-a-real-rule stale entry\n";
  std::string out;
  const int exit_code = run_lint(
      "--allowlist " + allow.string() + " " + fixture_args(), &out);
  EXPECT_EQ(exit_code, 2) << out;
  EXPECT_NE(out.find("unknown rule 'not-a-real-rule'"), std::string::npos)
      << out;
}

TEST_F(LintToolTest, MissingPathIsAConfigError) {
  std::string out;
  const int exit_code = run_lint("/nonexistent/sources", &out);
  EXPECT_EQ(exit_code, 2) << out;
}

TEST_F(LintToolTest, ListRulesNamesEveryRule) {
  std::string out;
  const int exit_code = run_lint("--list-rules", &out);
  EXPECT_EQ(exit_code, 0) << out;
  for (const char* rule :
       {"no-unordered-iteration", "no-wallclock-in-sim",
        "no-pointer-ordering", "contract-coverage", "mutex-naming"}) {
    EXPECT_NE(out.find(rule), std::string::npos)
        << "missing rule " << rule << " in:\n"
        << out;
  }
}

}  // namespace
