// The `cheriot` tool's exit contract, driven through the binary itself:
// 0 ok, 1 a check or finding failed, 2 a usage, load or I/O failure
// (tools/registry_cli.h). CI's image sweeps rely on these codes — an
// expected-fail step can only tell "bug found" from "could not write" if
// the two exit differently.
//
// bench_all and the benches keep the same contract (0 ok, 1 a bench failed
// or regressed, 2 usage), and the paper's numbers — Table 2, Fig. 6a,
// Table 3, Fig. 6b, the §5.3 ablation and Fig. 7 — are gated here against
// bench/baselines/.
#include <gtest/gtest.h>
#include <stdlib.h>
#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include "src/json/json.h"
#include "tools/registry_cli.h"

namespace {

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string dir = ::testing::TempDir() + "cheriot_cli_XXXXXX";
    ASSERT_NE(mkdtemp(dir.data()), nullptr);
    out_dir_ = dir;
  }
  void TearDown() override { std::filesystem::remove_all(out_dir_); }

  // Runs `cheriot ARGS` with its output discarded; returns the exit code.
  static int Exit(const std::string& args) {
    return Run(std::string(CHERIOT_BIN) + " " + args + " >/dev/null 2>&1");
  }

  // Runs a bench binary (or bench_all) with ARGS inside the test's own
  // directory, so a bench that ignored --json would still not write into the
  // build tree; returns the exit code. Stderr is kept: it names the key a
  // failed compare tripped on.
  int Bench(const std::string& binary, const std::string& args) const {
    return Run("cd " + out_dir_ + " && " + binary + " " + args + " >/dev/null");
  }

  std::string OutDir() const { return " --out-dir=" + out_dir_; }

  std::string out_dir_;

 private:
  static int Run(const std::string& command) {
    const int rc = std::system(command.c_str());
    EXPECT_TRUE(WIFEXITED(rc)) << command;
    return WEXITSTATUS(rc);
  }
};

// --check must actually gate: an injected fingerprint mismatch has to turn
// into a nonzero exit, or the CI invariance sweeps are no-ops.
TEST_F(CliTest, CheckFlagExitsNonzeroOnInjectedFingerprintMismatch) {
  for (const std::string command : {"trace", "health", "flow", "cov"}) {
    const std::string check =
        command + " --target=quickstart --cycles=200000 --check" + OutDir();
    EXPECT_EQ(Exit(check), 0) << command;
    EXPECT_EQ(Exit(check + " --inject-check-failure"), 1) << command;
  }
}

// The injected mismatch lands on the last board, so a fleet check that
// compared board 0 only would pass.
TEST_F(CliTest, FleetCheckComparesEveryBoard) {
  EXPECT_EQ(Exit("trace --target=fleet-node --fleet=3 --check "
                 "--inject-check-failure" + OutDir()),
            1);
}

TEST_F(CliTest, MalformedOrOutOfRangeNumbersAreUsageErrors) {
  EXPECT_EQ(Exit("trace --target=iot-mqtt-app --cycles=2e7" + OutDir()), 2);
  EXPECT_EQ(Exit("trace --target=quickstart --fleet=-1" + OutDir()), 2);
  EXPECT_EQ(Exit("trace --target=quickstart --fleet=4294967297" + OutDir()),
            2);
  EXPECT_EQ(Exit("flow --target=quickstart --fleet=0" + OutDir()), 2);
}

TEST_F(CliTest, UnknownTargetOrCommandIsAUsageError) {
  EXPECT_EQ(Exit("trace --target=no-such-image" + OutDir()), 2);
  EXPECT_EQ(Exit("no-such-command --all"), 2);
}

TEST_F(CliTest, UnwritableOutDirIsAnIoFailure) {
  for (const std::string command : {"trace", "mc"}) {
    EXPECT_EQ(Exit(command + " --target=quickstart --cycles=200000" +
                   OutDir() + "/missing"),
              2)
        << command;
  }
}

TEST_F(CliTest, McExitsOneWhenItFindsTheSeededBug) {
  EXPECT_EQ(Exit("mc --target=seeded-lost-wake" + OutDir()), 1);
}

// Every paper number the six benches print is guest-deterministic, so the
// compare is exact: this is the tier-1 gate on Table 2, Fig. 6a, Table 3,
// Fig. 6b, the §5.3 ablation and Fig. 7.
TEST_F(CliTest, PaperBenchesMatchTheirBaselines) {
  EXPECT_EQ(Bench(CHERIOT_BENCH_ALL,
                  "--only=bench_memory_usage,bench_call_latency,"
                  "bench_core_apis,bench_alloc_throughput,bench_cap_overhead,"
                  "bench_case_study --bin-dir=" CHERIOT_BENCH_DIR
                  " --compare=" CHERIOT_SRC_DIR "/bench/baselines" +
                      OutDir()),
            0);
}

// One cycle of drift in one number, or one key gone from the baseline, must
// fail the compare.
TEST_F(CliTest, PaperBaselineDriftFailsTheCompare) {
  namespace json = cheriot::json;
  namespace tools = cheriot::tools;
  const json::Object baseline = json::Parse(tools::ReadFile(
      CHERIOT_SRC_DIR "/bench/baselines/BENCH_call_latency.json")).AsObject();
  ASSERT_EQ(baseline.at("compartment_call_empty_cycles").AsInt(), 209);
  json::Object drifted = baseline;
  drifted["compartment_call_empty_cycles"] = 210;
  json::Object missing = baseline;
  missing.erase("interrupt_latency_cycles");
  for (const json::Object& doc : {drifted, missing}) {
    const std::string dir = out_dir_ + "/baselines";
    std::filesystem::create_directories(dir);
    tools::WriteFile(dir + "/BENCH_call_latency.json", json::Value(doc).Dump());
    EXPECT_EQ(Bench(CHERIOT_BENCH_ALL, "--only=bench_call_latency --bin-dir=" +
                                           std::string(CHERIOT_BENCH_DIR) +
                                           OutDir() + " --compare=" + dir),
              1);
  }
}

TEST_F(CliTest, BenchUsageErrorsExitTwo) {
  const std::string bench_dir = CHERIOT_BENCH_DIR;
  EXPECT_EQ(Bench(CHERIOT_BENCH_ALL, "--quick" + OutDir()), 2);
  EXPECT_EQ(Bench(CHERIOT_BENCH_ALL, "--tolerance=-1" + OutDir()), 2);
  // A misspelt or renamed bench must not quietly shrink the run.
  EXPECT_EQ(Bench(CHERIOT_BENCH_ALL,
                  "--only=bench_call_latency,bench_no_such" + OutDir()),
            2);
  EXPECT_EQ(Bench(CHERIOT_BENCH_ALL,
                  "--only=bench_call_latency --skip=bench_no_such" + OutDir()),
            2);
  EXPECT_EQ(Bench(bench_dir + "/bench_fleet_scale", "--demo-boards=abc"), 2);
  EXPECT_EQ(Bench(bench_dir + "/bench_fleet_scale", "--demo-boards=0"), 2);
  EXPECT_EQ(Bench(bench_dir + "/bench_snapshot", "--jsn=x"), 2);
  EXPECT_EQ(Bench(bench_dir + "/bench_call_latency", "--foo"), 2);
  EXPECT_TRUE(std::filesystem::is_empty(out_dir_));
}

}  // namespace
