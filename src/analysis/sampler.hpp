// Periodic metrics sampler.
//
// The raw view a dashboard wants: absolute queue occupancies per class
// plus the cumulative stall/conflict counters, snapshotted every N cycles.
// Deltas between consecutive samples localize *when* contention happened
// in a run, which end-of-run totals cannot.
//
// Attach to a simulator with attach() — it installs the simulator's cycle
// hook so samples land exactly every `interval` cycles without the host
// loop having to count — or call sample() manually at any cadence.
#pragma once

#include <iosfwd>
#include <vector>

#include "core/simulator.hpp"

namespace hmcsim {

class MetricsSampler {
 public:
  struct Sample {
    Cycle cycle{0};
    // Entries currently queued, summed across every device.
    u64 link_rqst{0};   ///< link (crossbar) request queues
    u64 link_rsp{0};    ///< link (crossbar) response queues
    u64 vault_rqst{0};  ///< vault controller request queues
    u64 vault_rsp{0};   ///< vault controller response queues
    u64 mode_rsp{0};    ///< register-access response staging queues
    // Cumulative counters at sample time (monotone; diff adjacent samples
    // for per-interval rates).
    u64 bank_conflicts{0};
    u64 xbar_rqst_stalls{0};
    u64 xbar_rsp_stalls{0};
    u64 vault_rsp_stalls{0};
    u64 send_stalls{0};
  };

  /// Install this sampler as `sim`'s cycle hook, firing every `interval`
  /// cycles (0 detaches).  The sampler must outlive the hook — detach (or
  /// destroy the simulator) before destroying the sampler.
  void attach(Simulator& sim, Cycle interval);

  /// Snapshot the simulator at its current cycle.
  void sample(const Simulator& sim);

  [[nodiscard]] const std::vector<Sample>& samples() const {
    return samples_;
  }
  [[nodiscard]] Cycle interval() const { return interval_; }

  void clear() { samples_.clear(); }

  /// CSV with a header row:
  /// cycle,link_rqst,link_rsp,vault_rqst,vault_rsp,mode_rsp,
  /// bank_conflicts,xbar_rqst_stalls,xbar_rsp_stalls,vault_rsp_stalls,
  /// send_stalls
  void write_csv(std::ostream& os) const;

 private:
  Cycle interval_{0};
  std::vector<Sample> samples_;
};

}  // namespace hmcsim
