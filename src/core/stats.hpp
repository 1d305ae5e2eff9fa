// Always-on per-device counters.
//
// Unlike trace records (which are gated by verbosity and fan out to sinks),
// these counters are maintained unconditionally — they are cheap, and the
// Table I bench reads them without paying for tracing.
#pragma once

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

  DeviceStats& operator+=(const DeviceStats& o) {
    reads += o.reads;
    writes += o.writes;
    atomics += o.atomics;
    mode_ops += o.mode_ops;
    custom_ops += o.custom_ops;
    bytes_read += o.bytes_read;
    bytes_written += o.bytes_written;
    responses += o.responses;
    error_responses += o.error_responses;
    bank_conflicts += o.bank_conflicts;
    xbar_rqst_stalls += o.xbar_rqst_stalls;
    xbar_rsp_stalls += o.xbar_rsp_stalls;
    vault_rsp_stalls += o.vault_rsp_stalls;
    latency_penalties += o.latency_penalties;
    route_hops += o.route_hops;
    misroutes += o.misroutes;
    link_errors += o.link_errors;
    link_retries += o.link_retries;
    link_crc_errors += o.link_crc_errors;
    link_seq_errors += o.link_seq_errors;
    link_abort_entries += o.link_abort_entries;
    link_irtry_tx += o.link_irtry_tx;
    link_irtry_rx += o.link_irtry_rx;
    link_pret_tx += o.link_pret_tx;
    link_tret_tx += o.link_tret_tx;
    link_replayed_flits += o.link_replayed_flits;
    link_token_stalls += o.link_token_stalls;
    link_retrain_cycles += o.link_retrain_cycles;
    link_failures += o.link_failures;
    link_tokens_debited += o.link_tokens_debited;
    link_tokens_returned += o.link_tokens_returned;
    dram_sbes += o.dram_sbes;
    dram_dbes += o.dram_dbes;
    scrub_steps += o.scrub_steps;
    scrub_corrections += o.scrub_corrections;
    scrub_uncorrectables += o.scrub_uncorrectables;
    vault_failures += o.vault_failures;
    vault_remaps += o.vault_remaps;
    degraded_drops += o.degraded_drops;
    refreshes += o.refreshes;
    row_hits += o.row_hits;
    row_misses += o.row_misses;
    pcm_write_throttle_stalls += o.pcm_write_throttle_stalls;
    sends += o.sends;
    send_stalls += o.send_stalls;
    recvs += o.recvs;
    flow_packets += o.flow_packets;
    return *this;
  }

  /// Total retired memory requests (the unit Table I counts).
  [[nodiscard]] u64 retired() const {
    return reads + writes + atomics + custom_ops;
  }

  /// Field-wise equality; the differential test harness compares runs
  /// across execution strategies with it.
  bool operator==(const DeviceStats&) const = default;
};

}  // namespace hmcsim
