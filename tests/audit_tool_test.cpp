// End-to-end tests for the tools/pfar_audit binary: a freshly serialized
// plan passes the whole battery with exit 0 and an all-pass JSON report; a
// tampered plan exits nonzero and the report names the violated invariant.
//
// The binary path is injected by CMake as PFAR_AUDIT_BINARY.

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/planner.hpp"
#include "core/serialize.hpp"
#include "temp_dir.hpp"

namespace fs = std::filesystem;

namespace {

class AuditToolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = pfar::test_support::fresh_temp_dir("pfar_audit_tool_test");
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Runs the audit binary with `args`, captures its report, returns the
  /// process exit code (-1 if the shell invocation itself failed).
  int run_audit(const std::string& args, std::string* report) {
    const fs::path out = dir_ / "report.json";
    const std::string cmd = std::string(PFAR_AUDIT_BINARY) + " " + args +
                            " --out " + out.string() + " 2>/dev/null";
    const int status = std::system(cmd.c_str());
    if (report) {
      std::ifstream in(out);
      std::ostringstream buf;
      buf << in.rdbuf();
      *report = buf.str();
    }
    if (status == -1) return -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  fs::path write_plan_file(const std::string& text) {
    const fs::path path = dir_ / "plan.pfar";
    std::ofstream(path, std::ios::binary) << text;
    return path;
  }

  static std::string good_plan_text() {
    const auto plan = pfar::core::AllreducePlanner(7).build();
    return pfar::core::serialize_plan(plan, 0);
  }

  fs::path dir_;
};

TEST_F(AuditToolTest, GoodPlanFilePassesWithExitZero) {
  const fs::path plan = write_plan_file(good_plan_text());
  std::string report;
  const int exit_code = run_audit("--plan " + plan.string(), &report);
  EXPECT_EQ(exit_code, 0) << report;
  EXPECT_NE(report.find("\"ok\": true"), std::string::npos) << report;
  EXPECT_NE(report.find("\"failed\": 0"), std::string::npos) << report;
  // The battery actually ran: the report names the key invariants.
  for (const char* check :
       {"serialize.parse", "trees.spanning", "congestion.recomputed",
        "lemma7_8.opposite_flows", "serialize.roundtrip"}) {
    EXPECT_NE(report.find(check), std::string::npos)
        << "missing check " << check << " in:\n" << report;
  }
}

TEST_F(AuditToolTest, DesignPointBatteryPassesWithExitZero) {
  std::string report;
  const int exit_code = run_audit("--q 7 --solution all", &report);
  EXPECT_EQ(exit_code, 0) << report;
  EXPECT_NE(report.find("\"ok\": true"), std::string::npos) << report;
  for (const char* check :
       {"table1.partition_sizes", "layout.properties_1_to_3",
        "cor7_15.pairwise_edge_disjoint", "bandwidth.claim"}) {
    EXPECT_NE(report.find(check), std::string::npos)
        << "missing check " << check << " in:\n" << report;
  }
}

TEST_F(AuditToolTest, CorruptedBodyFailsChecksumWithNonzeroExit) {
  std::string text = good_plan_text();
  const auto pos = text.find("tree ");
  ASSERT_NE(pos, std::string::npos);
  text[pos + 1] = 'x';  // damage the body without touching the checksum
  const fs::path plan = write_plan_file(text);
  std::string report;
  const int exit_code = run_audit("--plan " + plan.string(), &report);
  EXPECT_NE(exit_code, 0);
  EXPECT_NE(report.find("\"ok\": false"), std::string::npos) << report;
  EXPECT_NE(report.find("serialize.parse"), std::string::npos) << report;
  EXPECT_NE(report.find("checksum mismatch"), std::string::npos) << report;
}

TEST_F(AuditToolTest, TrailingGarbageAfterChecksumIsRejected) {
  const fs::path plan = write_plan_file(good_plan_text() + " \n");
  std::string report;
  const int exit_code = run_audit("--plan " + plan.string(), &report);
  EXPECT_NE(exit_code, 0);
  EXPECT_NE(report.find("trailing content after checksum"),
            std::string::npos)
      << report;
}

TEST_F(AuditToolTest, SemanticTamperWithValidChecksumNamesTheInvariant) {
  // Forge the stored aggregate bandwidth and re-stamp a valid checksum:
  // only the recomputation check can catch this, and it must name itself.
  std::string text = good_plan_text();
  const auto cs_pos = text.rfind("checksum ");
  ASSERT_NE(cs_pos, std::string::npos);
  std::string body = text.substr(0, cs_pos);
  const auto bw_pos = body.rfind("bw ");
  ASSERT_NE(bw_pos, std::string::npos);
  const auto bw_end = body.find(' ', bw_pos + 3);
  ASSERT_NE(bw_end, std::string::npos);
  body = body.substr(0, bw_pos + 3) + "0x1.8p+3" + body.substr(bw_end);
  std::ostringstream cs;
  cs << "checksum " << std::hex << pfar::core::fnv1a64(body) << "\n";
  const fs::path plan = write_plan_file(body + cs.str());

  std::string report;
  const int exit_code = run_audit("--plan " + plan.string(), &report);
  EXPECT_NE(exit_code, 0);
  EXPECT_NE(report.find("\"ok\": false"), std::string::npos) << report;
  EXPECT_NE(report.find("bandwidth.claim"), std::string::npos) << report;
  // The checksum itself was valid, so parsing must have succeeded.
  EXPECT_NE(report.find("{\"name\": \"serialize.parse\", \"pass\": true"),
            std::string::npos)
      << report;
}

TEST_F(AuditToolTest, UsageErrorsExitWithTwo) {
  std::string report;
  EXPECT_EQ(run_audit("--q 7 --solution bogus", &report), 2);
  EXPECT_EQ(run_audit("--plan " + (dir_ / "missing.pfar").string(), &report),
            2);
}

}  // namespace
