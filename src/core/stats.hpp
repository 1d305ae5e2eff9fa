// Always-on per-device counters.
//
// Unlike trace records (which are gated by verbosity and fan out to sinks),
// these counters are maintained unconditionally — they are cheap, and the
// Table I bench reads them without paying for tracing.
#pragma once

#include <iterator>
#include <string_view>

#include "common/types.hpp"

namespace hmcsim {

struct DeviceStats {
  // Retired memory operations (sub-cycle stage 4).
  u64 reads{0};
  u64 writes{0};
  u64 atomics{0};
  u64 mode_ops{0};
  u64 custom_ops{0};  ///< registered CMC commands retired
  u64 bytes_read{0};     ///< data bytes fetched from banks
  u64 bytes_written{0};  ///< data bytes stored to banks

  // Response generation (stages 4-5).
  u64 responses{0};
  u64 error_responses{0};

  // Contention events.
  u64 bank_conflicts{0};     ///< stage 3 recognitions (per queued packet-cycle)
  u64 xbar_rqst_stalls{0};   ///< crossbar -> vault/peer forwarding refusals
  u64 xbar_rsp_stalls{0};    ///< response registration refusals (stage 5)
  u64 vault_rsp_stalls{0};   ///< vault response queue full during stage 4
  u64 latency_penalties{0};  ///< non-co-located link/quad ingress events

  // Chaining.
  u64 route_hops{0};
  u64 misroutes{0};

  // Fault injection.
  u64 link_errors{0};   ///< packets killed by the injected link error model
  u64 link_retries{0};  ///< retransmissions absorbed by the retry protocol

  // Link layer (spec retry/token protocol; zero unless link_protocol on).
  u64 link_crc_errors{0};      ///< injected CRC failures detected on receive
  u64 link_seq_errors{0};      ///< injected SEQ discontinuities detected
  u64 link_abort_entries{0};   ///< times a receiver entered error-abort
  u64 link_irtry_tx{0};        ///< StartRetry/ClearError IRTRYs streamed
  u64 link_irtry_rx{0};        ///< IRTRY flow packets received from hosts
  u64 link_pret_tx{0};         ///< PRET acknowledgements sent
  u64 link_tret_tx{0};         ///< TRET/piggybacked token-return events
  u64 link_replayed_flits{0};  ///< FLITs replayed out of retry buffers
  u64 link_token_stalls{0};    ///< transmissions blocked on tokens/buffer
  u64 link_retrain_cycles{0};  ///< cycles a loaded link spent retraining
  u64 link_failures{0};        ///< links escalated to dead (LINK_FAILED)
  u64 link_tokens_debited{0};  ///< lifetime FLIT credits consumed
  u64 link_tokens_returned{0};  ///< lifetime FLIT credits returned

  // RAS: DRAM fault domain.
  u64 dram_sbes{0};  ///< single-bit errors corrected by SECDED on read
  u64 dram_dbes{0};  ///< uncorrectable errors returned as DRAM_DBE responses
  u64 scrub_steps{0};           ///< scrubber windows processed
  u64 scrub_corrections{0};     ///< SBEs the scrubber repaired
  u64 scrub_uncorrectables{0};  ///< DBEs the scrubber found (page retired)

  // RAS: vault degradation.
  u64 vault_failures{0};  ///< vaults dynamically marked failed
  u64 vault_remaps{0};    ///< requests rerouted to a partner vault
  u64 degraded_drops{0};  ///< requests answered VAULT_FAILED (incl. drains)

  // DRAM maintenance.
  u64 refreshes{0};  ///< vault refresh windows issued (tREFI events)

  // Row-buffer behavior (OpenPage policy only).
  u64 row_hits{0};
  u64 row_misses{0};

  // Backend-specific timing (zero unless the pcm_like backend with a
  // write gap is configured): issue attempts gated by the vault-wide
  // write-bandwidth throttle while the bank itself was free.
  u64 pcm_write_throttle_stalls{0};

  // Host-edge traffic.
  u64 sends{0};
  u64 send_stalls{0};
  u64 recvs{0};
  u64 flow_packets{0};

  DeviceStats& operator+=(const DeviceStats& o);

  /// Total retired memory requests (the unit Table I counts).
  [[nodiscard]] u64 retired() const {
    return reads + writes + atomics + custom_ops;
  }

  /// Field-wise equality; the differential test harness compares runs
  /// across execution strategies with it.
  bool operator==(const DeviceStats&) const = default;
};

/// One DeviceStats counter: the name the JSON report and hmcsim_get_stat
/// use for it, and the member it reads.
struct StatField {
  std::string_view name;
  u64 DeviceStats::*member;
};

/// Every DeviceStats counter, once.  The order is the checkpoint wire
/// order (each DEVC section opens with these words) and the JSON report
/// order, so new counters are appended, never inserted.
inline constexpr StatField kStatFields[] = {
    {"reads", &DeviceStats::reads},
    {"writes", &DeviceStats::writes},
    {"atomics", &DeviceStats::atomics},
    {"mode_ops", &DeviceStats::mode_ops},
    {"custom_ops", &DeviceStats::custom_ops},
    {"bytes_read", &DeviceStats::bytes_read},
    {"bytes_written", &DeviceStats::bytes_written},
    {"responses", &DeviceStats::responses},
    {"error_responses", &DeviceStats::error_responses},
    {"bank_conflicts", &DeviceStats::bank_conflicts},
    {"xbar_rqst_stalls", &DeviceStats::xbar_rqst_stalls},
    {"xbar_rsp_stalls", &DeviceStats::xbar_rsp_stalls},
    {"vault_rsp_stalls", &DeviceStats::vault_rsp_stalls},
    {"latency_penalties", &DeviceStats::latency_penalties},
    {"route_hops", &DeviceStats::route_hops},
    {"misroutes", &DeviceStats::misroutes},
    {"link_errors", &DeviceStats::link_errors},
    {"link_retries", &DeviceStats::link_retries},
    {"refreshes", &DeviceStats::refreshes},
    {"row_hits", &DeviceStats::row_hits},
    {"row_misses", &DeviceStats::row_misses},
    {"sends", &DeviceStats::sends},
    {"send_stalls", &DeviceStats::send_stalls},
    {"recvs", &DeviceStats::recvs},
    {"flow_packets", &DeviceStats::flow_packets},
    {"dram_sbes", &DeviceStats::dram_sbes},
    {"dram_dbes", &DeviceStats::dram_dbes},
    {"scrub_steps", &DeviceStats::scrub_steps},
    {"scrub_corrections", &DeviceStats::scrub_corrections},
    {"scrub_uncorrectables", &DeviceStats::scrub_uncorrectables},
    {"vault_failures", &DeviceStats::vault_failures},
    {"vault_remaps", &DeviceStats::vault_remaps},
    {"degraded_drops", &DeviceStats::degraded_drops},
    {"link_crc_errors", &DeviceStats::link_crc_errors},
    {"link_seq_errors", &DeviceStats::link_seq_errors},
    {"link_abort_entries", &DeviceStats::link_abort_entries},
    {"link_irtry_tx", &DeviceStats::link_irtry_tx},
    {"link_irtry_rx", &DeviceStats::link_irtry_rx},
    {"link_pret_tx", &DeviceStats::link_pret_tx},
    {"link_tret_tx", &DeviceStats::link_tret_tx},
    {"link_replayed_flits", &DeviceStats::link_replayed_flits},
    {"link_token_stalls", &DeviceStats::link_token_stalls},
    {"link_retrain_cycles", &DeviceStats::link_retrain_cycles},
    {"link_failures", &DeviceStats::link_failures},
    {"link_tokens_debited", &DeviceStats::link_tokens_debited},
    {"link_tokens_returned", &DeviceStats::link_tokens_returned},
    {"pcm_write_throttle_stalls", &DeviceStats::pcm_write_throttle_stalls},
};
// A counter added to DeviceStats but not to the table would silently miss
// the checkpoint, the report and the C API.
static_assert(std::size(kStatFields) * sizeof(u64) == sizeof(DeviceStats));

inline DeviceStats& DeviceStats::operator+=(const DeviceStats& o) {
  for (const StatField& f : kStatFields) this->*f.member += o.*f.member;
  return *this;
}

}  // namespace hmcsim
