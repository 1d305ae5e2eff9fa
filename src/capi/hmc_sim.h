/*
 * hmc_sim.h — C-compatible HMC-Sim application programming interface.
 *
 * The original HMC-Sim is implemented in ANSI-style C and packaged as a
 * single library object so it can be dropped into existing simulation
 * infrastructures without modification (paper §V).  This header reproduces
 * that API surface — the four major function classes: device
 * initialization, topology initialization, packet handlers and register
 * interface functions — as a thin shim over the C++ core.
 *
 * Return protocol (classic C convention):
 *    0  success
 *    2  HMC_STALL — the target crossbar arbitration queue is full
 *    1  no response packet pending (hmcsim_recv only)
 *   -1  error (bad argument / configuration / malformed packet)
 *
 * Packets are arrays of 64-bit words: packet[0] is the header, the last
 * word of the packet (2*LNG - 1) is the tail.  HMC_MAX_UQ_PACKET (18)
 * words always suffice.  If the tail's CRC field is zero, hmcsim_send
 * seals the packet with the correct CRC-32K on the caller's behalf.
 */
#ifndef HMCSIM_CAPI_HMC_SIM_H
#define HMCSIM_CAPI_HMC_SIM_H

#include <stdint.h>
#include <stdio.h>

#ifdef __cplusplus
extern "C" {
#endif

#define HMC_MAX_UQ_PACKET 18u
#define HMC_STALL 2

/* Request types, matching the HMC 1.0 command set. */
typedef enum {
  HMC_RD16, HMC_RD32, HMC_RD48, HMC_RD64,
  HMC_RD80, HMC_RD96, HMC_RD112, HMC_RD128,
  HMC_WR16, HMC_WR32, HMC_WR48, HMC_WR64,
  HMC_WR80, HMC_WR96, HMC_WR112, HMC_WR128,
  HMC_P_WR16, HMC_P_WR32, HMC_P_WR48, HMC_P_WR64,
  HMC_P_WR80, HMC_P_WR96, HMC_P_WR112, HMC_P_WR128,
  HMC_BWR, HMC_P_BWR,
  HMC_TWOADD8, HMC_P_TWOADD8,
  HMC_ADD16, HMC_P_ADD16,
  HMC_MD_RD, HMC_MD_WR,
  HMC_FLOW_NULL, HMC_PRET, HMC_TRET, HMC_IRTRY
} hmc_rqst_t;

/* Response types surfaced by hmcsim_decode_memresponse. */
typedef enum {
  HMC_RSP_RD, HMC_RSP_WR, HMC_RSP_MD_RD, HMC_RSP_MD_WR, HMC_RSP_ERROR,
  HMC_RSP_NONE
} hmc_rsp_t;

/* Link endpoint classes for hmcsim_link_config. */
typedef enum {
  HMC_LINK_HOST_DEV, /* host <-> device */
  HMC_LINK_DEV_DEV   /* device <-> device (chaining) */
} hmc_link_def_t;

/* Opaque simulator object.  Treat the contents as private. */
struct hmcsim_t {
  void* impl;
  uint32_t num_devs;
  uint32_t num_links;
};

/*
 * Section A: device and API initialization.
 *
 * num_vaults must equal num_links * 4; num_banks is per vault;
 * queue_depth sizes the vault request/response queues and xbar_depth the
 * crossbar arbitration queues (each 1..4096 slots); capacity is the
 * device capacity in gigabytes (0 derives it from the geometry).  Devices
 * within one object are physically homogeneous.
 */
int hmcsim_init(struct hmcsim_t* hmc, uint32_t num_devs, uint32_t num_links,
                uint32_t num_vaults, uint32_t queue_depth, uint32_t num_banks,
                uint32_t num_drams, uint64_t capacity, uint32_t xbar_depth);

/*
 * Section B: link and topology configuration.
 *
 * For HMC_LINK_HOST_DEV, src_dev must be the host id (num_devs + 1 works,
 * as in the paper) and dest_dev/dest_link name the device port.  For
 * HMC_LINK_DEV_DEV both endpoints are devices; loopbacks are rejected.
 * The topology is frozen on the first send/recv/clock call.
 */
int hmcsim_link_config(struct hmcsim_t* hmc, uint32_t src_dev,
                       uint32_t dest_dev, uint32_t src_link,
                       uint32_t dest_link, hmc_link_def_t type);

/* Tracing: attach a stdio stream and pick a verbosity level 0..3. */
int hmcsim_trace_handle(struct hmcsim_t* hmc, FILE* tfile);
int hmcsim_trace_level(struct hmcsim_t* hmc, uint32_t level);

/*
 * Section C: packet handlers.
 *
 * hmcsim_build_memrequest fills a fully formed request packet into
 * `packet` (HMC_MAX_UQ_PACKET words) and, when head/tail are non-NULL,
 * also returns the raw header and tail words.  `payload` supplies the
 * write/atomic data words (may be NULL for reads).
 */
int hmcsim_build_memrequest(struct hmcsim_t* hmc, uint8_t cub, uint64_t addr,
                            uint16_t tag, hmc_rqst_t type, uint8_t link,
                            const uint64_t* payload, uint64_t* rqst_head,
                            uint64_t* rqst_tail, uint64_t* packet);

/*
 * Inject a request packet.  The destination cube rides in the header CUB
 * field; the injection link is the tail SLID field; the injection device
 * is the (unique) root device exposing that host link.
 */
int hmcsim_send(struct hmcsim_t* hmc, uint64_t* packet);

/* Drain one response packet from host link `link` of device `dev`. */
int hmcsim_recv(struct hmcsim_t* hmc, uint32_t dev, uint32_t link,
                uint64_t* packet);

/* Decode a response packet previously returned by hmcsim_recv. */
int hmcsim_decode_memresponse(struct hmcsim_t* hmc, const uint64_t* packet,
                              hmc_rsp_t* type, uint16_t* tag,
                              uint32_t* errstat);

/* Progress all internal device state by one clock cycle. */
int hmcsim_clock(struct hmcsim_t* hmc);

/* Current 64-bit clock value. */
uint64_t hmcsim_get_clock(struct hmcsim_t* hmc);

/*
 * Section D: register interface (side-band JTAG / I2C path; does not
 * consume memory bandwidth and exists outside the clock domains).
 * `reg` is the architected physical register index.
 */
int hmcsim_jtag_reg_read(struct hmcsim_t* hmc, uint32_t dev, uint64_t reg,
                         uint64_t* result);
int hmcsim_jtag_reg_write(struct hmcsim_t* hmc, uint32_t dev, uint64_t reg,
                          uint64_t value);

/*
 * Utility functions.
 *
 * hmcsim_util_set_max_blocksize selects the default address-map mode for
 * the given maximum request block size (32/64/128/256 bytes); it must be
 * called before the topology freezes (first send/recv/clock).
 * hmcsim_util_decode_* decompose a physical address under the configured
 * map, mirroring the structural coordinates the trace stream reports.
 */
int hmcsim_util_set_max_blocksize(struct hmcsim_t* hmc, uint32_t dev,
                                  uint32_t bsize);
int hmcsim_util_get_max_blocksize(struct hmcsim_t* hmc, uint32_t dev,
                                  uint32_t* bsize);

/*
 * Vault timing-backend selection (docs/BACKENDS.md).  `name` is one of
 * "hmc_dram" (default), "generic_ddr", "pcm_like".  The device-wide form
 * applies to every vault; the per-vault form overrides one vault (a
 * repeated call for the same vault replaces the earlier choice).  Both
 * must be called before the topology freezes (first send/recv/clock) and
 * return -1 on an unknown name, a frozen topology, or parameters the
 * configuration validator rejects.
 */
int hmcsim_timing_backend(struct hmcsim_t* hmc, const char* name);
int hmcsim_vault_timing_backend(struct hmcsim_t* hmc, uint32_t vault,
                                const char* name);
int hmcsim_util_decode_vault(struct hmcsim_t* hmc, uint64_t addr,
                             uint32_t* vault);
int hmcsim_util_decode_bank(struct hmcsim_t* hmc, uint64_t addr,
                            uint32_t* bank);
int hmcsim_util_decode_quad(struct hmcsim_t* hmc, uint64_t addr,
                            uint32_t* quad);

/* Current per-device counters (Table I quantities).  The key
 * "cycles_skipped" additionally reports the clocks advanced via the
 * idle-cycle fast-forward path (simulation results never depend on it;
 * see docs/TESTING.md). */
int hmcsim_get_stat(struct hmcsim_t* hmc, uint32_t dev, const char* name,
                    uint64_t* value);

/* The complete per-device counter set, fetched in one call. */
struct hmcsim_stats {
  uint64_t reads;
  uint64_t writes;
  uint64_t atomics;
  uint64_t mode_ops;
  uint64_t custom_ops;
  uint64_t bytes_read;
  uint64_t bytes_written;
  uint64_t responses;
  uint64_t error_responses;
  uint64_t bank_conflicts;
  uint64_t xbar_rqst_stalls;
  uint64_t xbar_rsp_stalls;
  uint64_t vault_rsp_stalls;
  uint64_t latency_penalties;
  uint64_t route_hops;
  uint64_t misroutes;
  uint64_t link_errors;
  uint64_t link_retries;
  uint64_t refreshes;
  uint64_t row_hits;
  uint64_t row_misses;
  uint64_t sends;
  uint64_t send_stalls;
  uint64_t recvs;
  uint64_t flow_packets;
  /* RAS counters (zero unless DRAM fault injection / scrubbing / vault
   * degradation are configured). */
  uint64_t dram_sbes;
  uint64_t dram_dbes;
  uint64_t scrub_steps;
  uint64_t scrub_corrections;
  uint64_t scrub_uncorrectables;
  uint64_t vault_failures;
  uint64_t vault_remaps;
  uint64_t degraded_drops;
  /* Link-layer retry/token protocol counters (zero unless link_protocol
   * is configured). */
  uint64_t link_crc_errors;
  uint64_t link_seq_errors;
  uint64_t link_abort_entries;
  uint64_t link_irtry_tx;
  uint64_t link_irtry_rx;
  uint64_t link_pret_tx;
  uint64_t link_tret_tx;
  uint64_t link_replayed_flits;
  uint64_t link_token_stalls;
  uint64_t link_retrain_cycles;
  uint64_t link_failures;
  uint64_t link_tokens_debited;
  uint64_t link_tokens_returned;
  /* Timing-backend counter (zero unless the pcm_like backend with a write
   * gap is configured). */
  uint64_t pcm_write_throttle_stalls;
};

/* Fill `out` with device `dev`'s current counters. */
int hmcsim_get_stats(struct hmcsim_t* hmc, uint32_t dev,
                     struct hmcsim_stats* out);

/*
 * Packet-lifecycle observability.
 *
 * hmcsim_lifecycle_enable attaches the aggregation sink; from then on
 * every drained response contributes its per-stage latency segments.
 * hmcsim_lifecycle_stats reads one (class, segment) distribution summary;
 * HMC_OP_ALL merges the request classes.  Cycle counts throughout.
 */
typedef enum {
  HMC_LC_XBAR,          /* host send -> vault-queue arrival   */
  HMC_LC_VAULT_QUEUE,   /* arrival -> first conflict / retire */
  HMC_LC_BANK_CONFLICT, /* first conflict -> retire           */
  HMC_LC_RESPONSE,      /* retire -> crossbar registration    */
  HMC_LC_DRAIN,         /* registration -> host recv          */
  HMC_LC_TOTAL          /* host send -> host recv             */
} hmc_lifecycle_segment_t;

typedef enum {
  HMC_OP_READ, HMC_OP_WRITE, HMC_OP_ATOMIC, HMC_OP_OTHER, HMC_OP_ALL
} hmc_op_class_t;

typedef struct {
  uint64_t count;
  double mean;
  uint64_t min;
  uint64_t max;
  uint64_t p50;
  uint64_t p95;
  uint64_t p99;
} hmcsim_latency_t;

int hmcsim_lifecycle_enable(struct hmcsim_t* hmc);
int hmcsim_lifecycle_stats(struct hmcsim_t* hmc, hmc_op_class_t op,
                           hmc_lifecycle_segment_t segment,
                           hmcsim_latency_t* out);

/* Dump the full run report (config, counters, link utilization, energy
 * estimate) as a JSON document to `out`. */
int hmcsim_dump_stats_json(struct hmcsim_t* hmc, FILE* out);

/*
 * RAS: forward-progress watchdog status.  Returns 1 when the watchdog has
 * tripped (the simulator refuses further clocks), 0 when it has not, -1 on
 * a bad handle.  When tripped and `out` is non-NULL, the diagnostic dump
 * (queue occupancies, in-flight tags, lifecycle stamps) is written there.
 */
int hmcsim_watchdog_fired(struct hmcsim_t* hmc, FILE* out);

/*
 * Observability: self-profiling, occupancy telemetry, and the post-mortem
 * flight recorder (docs/OBSERVABILITY.md).  The three knobs must be set
 * after hmcsim_init and before the topology freezes (first
 * send/recv/clock).  All three are pure observation: simulation results
 * are bit-identical with them on or off.
 */
/* Enable steady-clock wall-time attribution for the clock stages. */
int hmcsim_profile_enable(struct hmcsim_t* hmc);
/* Sample queue/token/tag occupancy every `cycles` clocks (0 disables). */
int hmcsim_telemetry_interval(struct hmcsim_t* hmc, uint32_t cycles);
/* Keep a per-device ring of the last `depth` structured events
 * (0 disables). */
int hmcsim_flight_recorder_depth(struct hmcsim_t* hmc, uint32_t depth);

/* Print the per-stage wall-time table (and, when telemetry is on, the
 * occupancy table) to `out`.  -1 when profiling was never enabled. */
int hmcsim_dump_profile(struct hmcsim_t* hmc, FILE* out);
/* Dump the flight-recorder rings to `out`: chronological text, or Chrome
 * trace-event JSON (about:tracing / Perfetto).  -1 when the recorder is
 * off. */
int hmcsim_dump_flight_recorder(struct hmcsim_t* hmc, FILE* out);
int hmcsim_dump_flight_recorder_chrome(struct hmcsim_t* hmc, FILE* out);

/*
 * Chaos orchestration (docs/CHAOS.md): deterministic fault campaigns plus
 * a live invariant checker.
 */
/* Run the invariant suite every `cadence` cycles (0 disables).  Must be
 * set after hmcsim_init and before the topology freezes. */
int hmcsim_chaos_invariants(struct hmcsim_t* hmc, uint32_t cadence);
/* Compile the chaos plan text in `plan` (the docs/CHAOS.md directive
 * grammar) and arm it; freezes the topology.  Returns 0 on success, -1 on
 * a bad handle or a plan the compiler/validator rejects (the diagnostic is
 * written to `err` when non-NULL).  Link actions need the link retry
 * protocol, which this API does not turn on, so any link action other
 * than a zero rate, a burst of 1 or a restore is refused. */
int hmcsim_chaos_plan(struct hmcsim_t* hmc, const char* plan, FILE* err);
/* Returns 1 when an invariant violation froze the machine (the post-mortem
 * report is written to `out` when non-NULL), 0 when it has not, -1 on a
 * bad handle. */
int hmcsim_chaos_violated(struct hmcsim_t* hmc, FILE* out);

/*
 * Custom memory cube (CMC) commands.
 *
 * Register `handler` under a reserved 6-bit CMD encoding; the handler runs
 * at the vault as a read-modify-write of `access_bytes` (16..128, multiple
 * of 16) under full bank timing.  `memory` holds access_bytes/8 words and
 * is written back after the call; `operand` holds (rqst_flits-1)*2 request
 * payload words; `response` has (rsp_flits-1)*2 words to fill (rsp_flits 0
 * makes the command posted).  Registration requires a quiescent device and
 * must follow the first send/clock (which freezes the topology).
 * hmcsim_build_custom_request assembles a sealed request packet for a
 * registered encoding.
 */
typedef void (*hmc_cmc_handler_t)(uint64_t* memory, const uint64_t* operand,
                                  uint64_t* response, void* user);
int hmcsim_register_cmc(struct hmcsim_t* hmc, uint8_t raw_cmd,
                        uint32_t rqst_flits, uint32_t rsp_flits,
                        uint32_t access_bytes, hmc_cmc_handler_t handler,
                        void* user);
int hmcsim_build_custom_request(struct hmcsim_t* hmc, uint8_t cub,
                                uint64_t addr, uint16_t tag, uint8_t raw_cmd,
                                uint8_t link, const uint64_t* payload,
                                uint64_t* packet);

/*
 * Crash-consistent checkpointing (docs/FORMATS.md section 5).
 *
 * hmcsim_checkpoint_save writes the complete simulator state to `path`
 * atomically (temp file + fsync + rename): an interrupted save can never
 * tear an existing checkpoint.  Implicitly freezes the topology, like the
 * first send/clock.
 *
 * hmcsim_checkpoint_restore rebuilds the simulator from `path`.  Every
 * failure mode — missing file, truncation, bit-rot (per-section CRC),
 * impossible field values, unknown version — returns -1 with a
 * human-readable reason available from hmcsim_last_error(); no input can
 * crash the process.  On success the topology is frozen and the run
 * continues cycle-for-cycle identically to the saved one.  The
 * observability and chaos-cadence knobs set on this handle are kept:
 * checkpoints never carry them.
 */
int hmcsim_checkpoint_save(struct hmcsim_t* hmc, const char* path);
int hmcsim_checkpoint_restore(struct hmcsim_t* hmc, const char* path);

/* One-line description of why the most recent checkpoint save/restore on
 * this thread failed ("" when it succeeded), e.g.
 * "section crc mismatch in section DEVC at byte 4242".  The pointer stays
 * valid until the next checkpoint call on the same thread. */
const char* hmcsim_last_error(void);

/* Section A (teardown): release the devices. */
int hmcsim_free(struct hmcsim_t* hmc);

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* HMCSIM_CAPI_HMC_SIM_H */
