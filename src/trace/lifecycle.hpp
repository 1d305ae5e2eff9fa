// Packet-lifecycle observability: per-stage latency attribution.
//
// Every in-flight request is stamped with the cycle at which it crossed
// each pipeline stage (see simulator.hpp's stage list):
//
//   inject          host send() accepted the packet into a crossbar
//                   arbitration queue                         (API edge)
//   vault_arrive    the crossbar arbiter routed it into the destination
//                   vault request queue                       (stage 1/2)
//   first_conflict  the first cycle stage 3 recognized its bank as busy
//                   or contended (0 = never conflicted)       (stage 3)
//   retire          the bank served the request               (stage 4)
//   rsp_register    the response was registered with a crossbar response
//                   queue at the serving device               (stage 5)
//   drain           host recv() drained the response          (API edge)
//
// The stamps decompose end-to-end latency into five contiguous segments
// (Xbar, VaultQueue, BankConflict, Response, Drain) whose sum is exactly
// the driver-observed send->recv latency — the attribution layer hardware
// characterization studies derive by inference on real parts.
#pragma once

#include <string_view>

#include "common/latency.hpp"
#include "common/types.hpp"
#include "packet/command.hpp"

namespace hmcsim {

/// The complete stamp record one packet accumulates between send() and
/// recv().  Carried on RequestEntry, copied onto the ResponseEntry at
/// bank retire, and dispatched to observers at host drain.
struct PacketLifecycle {
  Cycle inject{0};
  Cycle vault_arrive{0};
  Cycle first_conflict{0};  ///< 0 = no conflict was ever recognized
  Cycle retire{0};
  Cycle rsp_register{0};
  Cycle drain{0};
  /// Locality and identity of the serving access, fixed at retire.
  u32 dev{0};
  u32 vault{0};
  u32 link{0};  ///< home (injection/drain) host link
  Tag tag{0};
  Command cmd{Command::Null};  ///< the *request* command
};

/// Contiguous latency segments derived from the stamps.  Total is the
/// end-to-end send->recv latency and equals the sum of the other five.
enum class LifecycleSegment : u8 {
  Xbar,          ///< inject -> vault_arrive (arbitration queues + hops)
  VaultQueue,    ///< vault_arrive -> first conflict (or retire)
  BankConflict,  ///< first conflict -> retire (0 when never conflicted)
  Response,      ///< retire -> rsp_register (vault response queue wait)
  Drain,         ///< rsp_register -> drain (response queue + host)
  Total,         ///< inject -> drain
  Count,
};

inline constexpr usize kLifecycleSegmentCount =
    static_cast<usize>(LifecycleSegment::Count);

[[nodiscard]] std::string_view to_string(LifecycleSegment s);

/// Request classes the aggregation splits on.
enum class OpClass : u8 { Read, Write, Atomic, Other, Count };

inline constexpr usize kOpClassCount = static_cast<usize>(OpClass::Count);

[[nodiscard]] std::string_view to_string(OpClass c);

/// Classify a request command (Other covers CMC and anything unexpected).
[[nodiscard]] OpClass op_class_of(Command cmd);

/// Cycle length of one segment, computed with saturating subtraction so a
/// partially stamped record can never produce a wrapped-around huge value.
[[nodiscard]] Cycle segment_cycles(const PacketLifecycle& lc,
                                   LifecycleSegment s);

/// Consumer of completed packet lifecycles.  Unlike TraceSink (which sees
/// individual stage events as they happen), an observer sees one complete
/// stamp record per packet, at host-drain time.
class LifecycleObserver {
 public:
  virtual ~LifecycleObserver() = default;
  virtual void complete(const PacketLifecycle& lc) = 0;
};

/// Aggregates completed lifecycles into per-(class, segment) log2 latency
/// histograms with percentiles.  O(1) memory regardless of run length.
class LifecycleSink final : public LifecycleObserver {
 public:
  void complete(const PacketLifecycle& lc) override;

  [[nodiscard]] const LatencyStats& stats(OpClass c,
                                          LifecycleSegment s) const {
    return stats_[static_cast<usize>(c)][static_cast<usize>(s)];
  }
  /// One segment's distribution merged across every request class.
  [[nodiscard]] LatencyStats merged(LifecycleSegment s) const;
  /// Completed packets observed (all classes).
  [[nodiscard]] u64 completed() const { return completed_; }
  /// Packets whose BankConflict segment was non-zero.
  [[nodiscard]] u64 conflicted() const { return conflicted_; }

  void clear();

 private:
  u64 completed_{0};
  u64 conflicted_{0};
  LatencyStats stats_[kOpClassCount][kLifecycleSegmentCount];
};

}  // namespace hmcsim
