// The hmcsim_run exit-code contract (documented in the tool header and
// README): 0 success, 1 incomplete/bad input, 2 usage error, 3 watchdog,
// 4 resume failure, 5 checkpoint-write failure, 6 chaos invariant
// violation — plus the out-of-process kill-mid-write path
// (HMCSIM_FAILPOINT=crash) that the in-process harness cannot exercise.
// Scripts and CI key off these values, so they are pinned here against
// the real binary (HMCSIM_TOOL_PATH, injected by the build as
// $<TARGET_FILE:hmcsim_run>).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

namespace {

namespace fs = std::filesystem;

std::string tool() { return HMCSIM_TOOL_PATH; }

/// Run a shell command, returning the process exit status (or -1 when the
/// child did not exit normally — signals are reported distinctly so a
/// crash never masquerades as an exit code).
int run(const std::string& cmd) {
  const int raw = std::system((cmd + " >/dev/null 2>&1").c_str());
  if (raw == -1) return -1;
  if (WIFEXITED(raw)) return WEXITSTATUS(raw);
  return -1;
}

/// Completed (renamed) generation files in `dir` — temp debris excluded.
std::vector<std::string> list_bins(const std::string& dir) {
  std::vector<std::string> bins;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    const std::string name = e.path().filename().string();
    if (name.size() > 4 && name.substr(name.size() - 4) == ".bin") {
      bins.push_back(name);
    }
  }
  return bins;
}

class ExitCodes : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("hmcsim_exit_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  [[nodiscard]] std::string path(const char* name) const {
    return (dir_ / name).string();
  }
  fs::path dir_;
};

TEST_F(ExitCodes, ZeroOnSuccess) {
  EXPECT_EQ(run(tool() + " --preset a --requests 4096"), 0);
}

TEST_F(ExitCodes, OneOnBadInputFiles) {
  EXPECT_EQ(run(tool() + " --config " + path("missing.conf")), 1);
  std::ofstream(path("bad.trace")) << "R 0x100 64\ngarbage here\n";
  EXPECT_EQ(run(tool() + " --workload trace --trace-in " +
                path("bad.trace") + " --requests 16"),
            1);
}

TEST_F(ExitCodes, TwoOnUsageErrors) {
  EXPECT_EQ(run(tool() + " --no-such-flag"), 2);
  EXPECT_EQ(run(tool() + " --requests 10abc"), 2);
  EXPECT_EQ(run(tool() + " --resume"), 2);  // --resume needs a directory
  // A value too large for the 32-bit setting it feeds is refused, not
  // truncated (these would silently turn the watchdog and recorder off).
  EXPECT_EQ(run(tool() + " --requests 64 --watchdog 4294967296"), 2);
  EXPECT_EQ(run(tool() + " --requests 64 --flight-recorder-depth 4294967296"),
            2);
}

TEST_F(ExitCodes, ThreeOnWatchdog) {
  EXPECT_EQ(run(tool() +
                " --preset a --requests 64 --wedge-vaults 0xffff"
                " --watchdog 2000"),
            3);
}

TEST_F(ExitCodes, TwoOnWedgeMaskBeyondVaultCount) {
  // Preset a has 16 vaults; naming vault 16 is a typo'd experiment and must
  // be refused as a usage error before anything runs.
  EXPECT_EQ(run(tool() +
                " --preset a --requests 64 --wedge-vaults 0x10000"
                " --watchdog 2000"),
            2);
}

TEST_F(ExitCodes, SixOnChaosInvariantViolation) {
  // The break_invariant test hook corrupts the link-token ledger; the
  // live checker must catch it and pin the dedicated exit code.
  std::ofstream(path("broken.plan")) << "at 200 break_invariant 7\n";
  EXPECT_EQ(run(tool() +
                " --preset a --requests 4096 --link-protocol 1"
                " --link-retry-limit 8 --chaos-invariants 64 --chaos-plan " +
                path("broken.plan")),
            6);
}

TEST_F(ExitCodes, TwoOnChaosPlanErrors) {
  EXPECT_EQ(run(tool() + " --chaos-plan " + path("missing.plan")), 2);
  std::ofstream(path("bad.plan")) << "at 10 melt_cube 1\n";
  EXPECT_EQ(run(tool() + " --chaos-plan " + path("bad.plan")), 2);
  // Structural indices are validated against the configured geometry.
  std::ofstream(path("range.plan")) << "at 10 kill_link 99\n";
  EXPECT_EQ(run(tool() + " --preset a --chaos-plan " + path("range.plan")), 2);
  // --chaos-shrink without a campaign to shrink is a usage error.
  EXPECT_EQ(run(tool() + " --chaos-shrink " + path("out.plan")), 2);
}

TEST_F(ExitCodes, ChaosShrinkEmitsAReplayableReproducer) {
  // A noisy campaign around one real corruption: the shrinker must write a
  // reproducer that trips the same violation standalone (exit 6 again).
  std::ofstream(path("noisy.plan"))
      << "at 50 link_error_ppm 2000\n"
      << "at 100 link_burst 2\n"
      << "at 200 break_invariant 7\n"
      << "at 400 dram_sbe_ppm 500\n";
  const std::string base = " --preset a --requests 4096 --link-protocol 1"
                           " --link-retry-limit 8 --chaos-invariants 64";
  EXPECT_EQ(run(tool() + base + " --chaos-plan " + path("noisy.plan") +
                " --chaos-shrink " + path("min.plan")),
            6);
  std::ifstream min(path("min.plan"));
  ASSERT_TRUE(min.good()) << "shrinker wrote no reproducer";
  std::stringstream contents;
  contents << min.rdbuf();
  EXPECT_NE(contents.str().find("break_invariant"), std::string::npos);
  // The minimal plan replays the violation on its own.
  EXPECT_EQ(run(tool() + base + " --chaos-plan " + path("min.plan")), 6);
}

TEST_F(ExitCodes, FourOnResumeFailure) {
  const std::string ckpt = (dir_ / "ckpt").string();
  fs::create_directories(ckpt);
  std::ofstream(ckpt + "/ckpt-000000000000.bin") << "definitely not valid";
  EXPECT_EQ(run(tool() + " --requests 64 --checkpoint-dir " + ckpt +
                " --resume"),
            4);
  // An *empty* directory is not a failure: fresh start, clean exit.
  const std::string empty = (dir_ / "empty").string();
  fs::create_directories(empty);
  EXPECT_EQ(run(tool() + " --requests 4096 --checkpoint-dir " + empty +
                " --checkpoint-interval 500 --resume"),
            0);
}

TEST_F(ExitCodes, FiveOnCheckpointWriteFailure) {
  const std::string ckpt = (dir_ / "ckpt").string();
  EXPECT_EQ(run("HMCSIM_FAILPOINT=enospc:1000 " + tool() +
                " --requests 8192 --checkpoint-dir " + ckpt +
                " --checkpoint-interval 200"),
            5);
  // The atomic writer must have left no renamed generation behind.
  EXPECT_TRUE(list_bins(ckpt).empty());
}

TEST_F(ExitCodes, CrashDuringCheckpointThenResumeCompletes) {
  // The real out-of-process kill: the failpoint _exit(9)s the tool while
  // generation bytes are mid-flight to disk, leaving torn `*.tmp.*`
  // debris; --resume falls back to the newest complete generation and the
  // rerun finishes with exit 0.
  const std::string ckpt = (dir_ / "ckpt").string();
  const std::string base = " --requests 16384 --checkpoint-dir " + ckpt +
                           " --checkpoint-interval 200";
  EXPECT_EQ(run("HMCSIM_FAILPOINT=crash:600000 " + tool() + base), 9);
  EXPECT_EQ(run(tool() + base + " --resume"), 0);
}

}  // namespace
