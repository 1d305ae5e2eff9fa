// Host driver: the paper's test application loop.
//
// "The application will send as many memory requests as possible to the
// target device or devices until an appropriate stall is received
// indicating that the crossbar arbitration queues are full.  The
// application selects appropriate HMC links in a simple round-robin fashion
// in order to naively balance the traffic across all possible injection
// points." (§VI.A)
//
// The driver owns tag allocation (9-bit tag space per host port), response
// correlation, latency accounting, and the send/drain/clock cycle loop.
// An alternative locality-aware injection policy backs the paper's
// corollary that "locality-aware host devices have the potential to reduce
// memory latency and reduce internal memory device contention" (§VI.B,
// ablation A3).
//
// Host-side resilience (RAS): with response_timeout_cycles set, the driver
// arms a per-tag deadline on every non-posted send.  A missed deadline
// marks the tag a *zombie* — the tag stays allocated until the (possibly
// very late) response actually surfaces, so a retry can never collide with
// a stale in-flight packet — and the request is resent under a fresh tag
// after an exponential backoff, up to retry_limit times.  Past the budget
// the request terminates as a host-side timeout (DriverResult::abandoned),
// preserving conservation: every injected request completes exactly once,
// as data, as an ERROR response, or as an abandonment.
#pragma once

#include <array>
#include <deque>
#include <iosfwd>
#include <vector>

#include "common/latency.hpp"
#include "core/policy.hpp"
#include "core/simulator.hpp"
#include "workload/generator.hpp"

namespace hmcsim {

enum class TargetPolicy : u8 {
  FixedCube,       ///< all requests target DriverConfig::target_cub
  RoundRobinCubes, ///< spread requests across every configured device
};

struct DriverConfig {
  u64 total_requests{u64{1} << 20};
  /// Maximum in-flight requests per host port; capped by the 512-entry tag
  /// space.
  u32 max_outstanding_per_port{512};
  InjectionPolicy policy{InjectionPolicy::RoundRobin};
  TargetPolicy targets{TargetPolicy::FixedCube};
  u32 target_cub{0};
  /// Abort the run after this many cycles (0 = unlimited).  A safety net
  /// for deliberately misconfigured topologies that can never complete.
  Cycle max_cycles{0};
  /// Cycles to wait for a response before declaring a host-side timeout
  /// (0 = never time out).
  Cycle response_timeout_cycles{0};
  /// Resends attempted per request after a timeout; past the budget the
  /// request is abandoned (DriverResult::abandoned) instead of retried.
  u32 retry_limit{0};
  /// Backoff before the first resend; doubles per subsequent resend of the
  /// same request (capped at base << 16).  0 = resend on the next cycle.
  Cycle retry_backoff_cycles{0};
};

// LatencyStats (send cycle -> response-drain cycle aggregation) lives in
// common/latency.hpp so the lifecycle observability layer can reuse it.

struct DriverResult {
  Cycle cycles{0};        ///< simulated clock at completion
  u64 sent{0};            ///< logical requests injected (excludes resends)
  u64 completed{0};       ///< responses received (plus posted sends)
  u64 errors{0};          ///< ERROR responses among completed
  u64 send_stalls{0};     ///< Stalled returns observed by the host
  u64 timeouts{0};        ///< response deadlines missed by the host
  u64 retries{0};         ///< resends performed after a timeout
  u64 abandoned{0};       ///< requests given up after the retry budget
  bool hit_cycle_cap{false};
  bool watchdog_fired{false};  ///< simulator watchdog tripped mid-run
  LatencyStats latency;
};

class HostDriver {
 public:
  /// The simulator must be initialized; the generator outlives the driver.
  HostDriver(Simulator& sim, Generator& generator, DriverConfig config);

  /// Run to completion: inject config.total_requests requests and drain
  /// every response (or retry/abandon it under the resilience policy).
  DriverResult run();

  /// One drive-loop iteration: drain responses, scan deadlines, inject,
  /// clock.  Returns true while the run is incomplete.  Accumulates into
  /// the caller-owned result so a run can be checkpointed mid-flight.
  bool step(DriverResult& result);

  /// Final response collection after an external step() loop ends — run()
  /// is exactly `while (step(r)) {}` followed by finish(r).  Harnesses
  /// that drive step() themselves (e.g. to interleave periodic
  /// checkpoints, tools/hmcsim_run.cpp) must call this once afterwards.
  void finish(DriverResult& result);

  /// Serialize tag/retry/progress state so a run can resume after a
  /// simulator checkpoint restore.  The caller re-creates the driver over
  /// an identically-seeded generator; restore() replays the generator by
  /// recorded call count to re-synchronize it.
  [[nodiscard]] Status save(std::ostream& os) const;
  [[nodiscard]] Status restore(std::istream& is);

  /// In-flight (tag-table) occupancy summed over every host port.  Feeds the
  /// host-tag occupancy telemetry track.
  [[nodiscard]] u32 outstanding_total() const {
    u32 n = 0;
    for (const PortState& p : ports_) n += p.outstanding;
    return n;
  }

  /// Retarget the response deadline mid-run (chaos host_timeout events).
  /// Applies to sends from the next injection on; deadlines already armed
  /// keep the value they were stamped with.
  void set_response_timeout(Cycle cycles) {
    cfg_.response_timeout_cycles = cycles;
  }
  [[nodiscard]] Cycle response_timeout() const {
    return cfg_.response_timeout_cycles;
  }

  /// Host-side conservation identities, checked against the caller-owned
  /// accumulated result: per-port tag-pool conservation (free + outstanding
  /// == capacity), zombie-tag accounting (zombies never exceed outstanding)
  /// and logical request conservation (sent − completed == live in-flight +
  /// queued retries).  The chaos invariant checker consults this through
  /// ChaosEngine::set_host_probe.  Returns false and describes the first
  /// broken identity in `detail`.
  [[nodiscard]] bool invariants_ok(const DriverResult& result,
                                   std::string* detail) const;

 private:
  /// Book-keeping for one allocated tag.
  struct InFlight {
    RequestDesc desc{};
    Cycle sent_at{0};
    Cycle deadline{0};  ///< 0 = no timeout armed
    u32 cub{0};
    u32 attempts{0};    ///< resends so far (0 = first transmission)
    bool zombie{false}; ///< timed out; tag held until the response lands
  };

  struct PortState {
    u32 dev;
    u32 link;
    std::vector<u16> free_tags;                 // LIFO free list
    std::array<InFlight, 512> inflight{};       // tag -> book-keeping
    u32 outstanding{0};
  };

  /// A timed-out request waiting out its backoff before the resend.
  struct RetryEntry {
    RequestDesc desc{};
    u32 cub{0};
    u32 attempts{0};
    Cycle not_before{0};
  };

  /// Drain every ready response on every port; updates latency/errors.
  /// Responses to zombie tags only release the tag.
  void drain_responses(DriverResult& result);

  /// Scan armed deadlines; zombify expired tags and schedule resends (or
  /// abandon past the retry budget).
  void check_timeouts(DriverResult& result);

  /// Inject until every port stalls or nothing is sendable this cycle.
  /// Due retries take priority over fresh generator requests.
  void inject(DriverResult& result);

  /// Pick the port for the next request under the configured policy;
  /// returns nullptr when no port can take it right now.
  PortState* pick_port(const RequestDesc& desc, u64 blocked_mask,
                       usize& port_index);

  /// The saved state's layout, one walk for save() and restore() (`Self`
  /// is const HostDriver or HostDriver; workload/driver.cpp).
  template <class Ar, class Self>
  static bool io(Ar& ar, Self& d);

  Simulator& sim_;
  Generator& gen_;
  DriverConfig cfg_;
  std::vector<PortState> ports_;
  std::deque<RetryEntry> retry_queue_;
  usize rr_next_{0};
  u32 next_cube_{0};
  bool have_pending_{false};
  RequestDesc pending_{};
  u32 pending_cub_{0};
  u32 pending_attempts_{0};
  bool pending_is_retry_{false};
  u64 gen_calls_{0};  ///< generator invocations, for restore replay
};

/// Bundle the driver's tag/retry/progress state together with the
/// caller-owned accumulated DriverResult (which driver.save alone does not
/// cover — latency histograms and counters live with the caller) into one
/// opaque blob.  This is what rides in a checkpoint's HOST section so an
/// interrupted run resumes bit-identical to an uninterrupted one.
[[nodiscard]] std::string save_host_state(const HostDriver& driver,
                                          const DriverResult& result);

/// Inverse of save_host_state.  `driver` must be freshly constructed over
/// the restored simulator and an identically-seeded generator (restore
/// replays the generator to re-synchronize it).  Hostile-input safe: any
/// malformed blob yields a non-Ok status, never an abort or OOB access.
[[nodiscard]] Status restore_host_state(const std::string& blob,
                                        HostDriver& driver,
                                        DriverResult& result);

}  // namespace hmcsim
