// Golden-file regression test for the JSON report.
//
// A fixed workload (seeded random access, RAS knobs on, 1 thread) runs to
// completion and its full JSON report is compared byte-for-byte against
// tests/golden/report_small_random.json.  Every integer statistic is
// locked exactly; floating-point values (means, power estimates, link
// utilization) are masked to "0.0" before comparison because their last
// printed digit can legitimately differ across libc printf
// implementations.
//
// To regenerate after an intentional behavior change:
//
//   HMCSIM_UPDATE_GOLDEN=1 ctest -R GoldenReport
//
// then review the diff like any other source change.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <regex>
#include <sstream>
#include <string>

#include "analysis/json.hpp"
#include "analysis/report.hpp"
#include "tests/core/helpers.hpp"
#include "trace/lifecycle.hpp"
#include "workload/driver.hpp"

#ifndef HMCSIM_GOLDEN_DIR
#define HMCSIM_GOLDEN_DIR "tests/golden"
#endif

namespace hmcsim {
namespace {

/// Mask every float-formatted number ("1.5", "2e-07", "inf-adjacent") so
/// the comparison only locks integers, keys, and structure.
std::string mask_floats(const std::string& json) {
  static const std::regex kFloat(
      R"((-?\d+\.\d+([eE][+-]?\d+)?|-?\d+[eE][+-]?\d+))");
  return std::regex_replace(json, kFloat, "0.0");
}

std::string render_report() {
  DeviceConfig dc = test::small_device();
  dc.dram_sbe_rate_ppm = 500;
  dc.dram_dbe_rate_ppm = 100;
  dc.scrub_interval_cycles = 256;
  dc.vault_fail_threshold = 8;
  Simulator sim = test::make_simple_sim(dc);
  auto sink = std::make_shared<LifecycleSink>();
  sim.add_lifecycle_observer(sink);

  GeneratorConfig gc;
  gc.capacity_bytes = dc.derived_capacity();
  gc.seed = 42;
  RandomAccessGenerator gen(gc);
  DriverConfig dcfg;
  dcfg.total_requests = 2000;
  dcfg.max_cycles = 200000;
  HostDriver driver(sim, gen, dcfg);
  (void)driver.run();

  std::ostringstream os;
  ReportExtras extras;
  extras.lifecycle = sink.get();
  write_stats_json(os, sim, PowerConfig{}, extras);
  return mask_floats(std::move(os).str());
}

TEST(GoldenReport, JsonReportMatchesGoldenFile) {
  const std::string path =
      std::string(HMCSIM_GOLDEN_DIR) + "/report_small_random.json";
  const std::string got = render_report();

  if (std::getenv("HMCSIM_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << got;
    GTEST_SKIP() << "golden file regenerated: " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good())
      << "missing golden file " << path
      << " — regenerate with HMCSIM_UPDATE_GOLDEN=1 ctest -R GoldenReport";
  std::ostringstream want;
  want << in.rdbuf();
  const std::string expected = std::move(want).str();

  if (got != expected) {
    // Point at the first differing line so the failure reads like a diff.
    std::istringstream ga(expected);
    std::istringstream gb(got);
    std::string la;
    std::string lb;
    usize line = 0;
    while (true) {
      const bool ha = static_cast<bool>(std::getline(ga, la));
      const bool hb = static_cast<bool>(std::getline(gb, lb));
      ++line;
      if (!ha && !hb) break;
      if (la != lb || ha != hb) {
        FAIL() << "report diverges from golden at line " << line
               << "\n  golden: " << (ha ? la : "<eof>")
               << "\n  got:    " << (hb ? lb : "<eof>")
               << "\nIf the change is intentional, regenerate with "
                  "HMCSIM_UPDATE_GOLDEN=1 and review the diff.";
      }
    }
  }
  SUCCEED();
}

TEST(GoldenReport, MaskerOnlyTouchesFloats) {
  EXPECT_EQ(mask_floats(R"({"a":12,"b":1.5,"c":2e-07,"d":"x1.5y"})"),
            R"({"a":12,"b":0.0,"c":0.0,"d":"x0.0y"})");
  EXPECT_EQ(mask_floats(R"("count":144,"mean":37.59375)"),
            R"("count":144,"mean":0.0)");
}

}  // namespace
}  // namespace hmcsim
