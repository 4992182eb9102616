// The `cheriot` tool's exit contract, driven through the binary itself:
// 0 ok, 1 a check or finding failed, 2 a usage, load or I/O failure
// (tools/registry_cli.h). CI's image sweeps rely on these codes — an
// expected-fail step can only tell "bug found" from "could not write" if
// the two exit differently.
#include <gtest/gtest.h>
#include <stdlib.h>
#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <string>

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
    const std::string command =
        std::string(CHERIOT_BIN) + " " + args + " >/dev/null 2>&1";
    const int rc = std::system(command.c_str());
    EXPECT_TRUE(WIFEXITED(rc)) << args;
    return WEXITSTATUS(rc);
  }

  std::string OutDir() const { return " --out-dir=" + out_dir_; }

  std::string out_dir_;
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

}  // namespace
