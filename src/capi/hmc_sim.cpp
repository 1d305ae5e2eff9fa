// C shim implementation: marshals the classic hmcsim_* calls onto the C++
// core.  The shim holds the configuration until the first operational call,
// because the original API wires the topology *after* hmcsim_init.
#include "capi/hmc_sim.h"

#include <cstdio>
#include <memory>
#include <string>
#include <ostream>
#include <vector>

#include "analysis/json.hpp"
#include "analysis/report.hpp"
#include "core/simulator.hpp"

namespace {

using namespace hmcsim;

/// std::streambuf adapter so TextSink can write to a client FILE*.
class FileStreambuf final : public std::streambuf {
 public:
  explicit FileStreambuf(FILE* f) : file_(f) {}

 protected:
  int overflow(int ch) override {
    if (ch == EOF) return EOF;
    return std::fputc(ch, file_) == EOF ? EOF : ch;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    return static_cast<std::streamsize>(
        std::fwrite(s, 1, static_cast<size_t>(n), file_));
  }
  int sync() override { return std::fflush(file_); }

 private:
  FILE* file_;
};

struct Shim {
  SimConfig config;
  Topology topo;
  Simulator sim;
  bool frozen{false};

  std::unique_ptr<FileStreambuf> trace_buf;
  std::unique_ptr<std::ostream> trace_stream;
  TraceLevel pending_level{TraceLevel::Off};
  std::shared_ptr<LifecycleSink> lifecycle;

  /// Freeze the topology and bring the simulator up on first use.
  Status freeze() {
    if (frozen) return Status::Ok;
    const Status s = sim.init(config, topo);
    if (!ok(s)) return s;
    sim.tracer().set_level(pending_level);
    if (trace_stream) {
      sim.tracer().add_sink(std::make_shared<TextSink>(*trace_stream));
    }
    if (lifecycle) sim.add_lifecycle_observer(lifecycle);
    frozen = true;
    return Status::Ok;
  }
};

Shim* shim_of(struct hmcsim_t* hmc) {
  return (hmc != nullptr) ? static_cast<Shim*>(hmc->impl) : nullptr;
}

Command command_of(hmc_rqst_t type) {
  switch (type) {
    case HMC_RD16: return Command::Rd16;
    case HMC_RD32: return Command::Rd32;
    case HMC_RD48: return Command::Rd48;
    case HMC_RD64: return Command::Rd64;
    case HMC_RD80: return Command::Rd80;
    case HMC_RD96: return Command::Rd96;
    case HMC_RD112: return Command::Rd112;
    case HMC_RD128: return Command::Rd128;
    case HMC_WR16: return Command::Wr16;
    case HMC_WR32: return Command::Wr32;
    case HMC_WR48: return Command::Wr48;
    case HMC_WR64: return Command::Wr64;
    case HMC_WR80: return Command::Wr80;
    case HMC_WR96: return Command::Wr96;
    case HMC_WR112: return Command::Wr112;
    case HMC_WR128: return Command::Wr128;
    case HMC_P_WR16: return Command::PostedWr16;
    case HMC_P_WR32: return Command::PostedWr32;
    case HMC_P_WR48: return Command::PostedWr48;
    case HMC_P_WR64: return Command::PostedWr64;
    case HMC_P_WR80: return Command::PostedWr80;
    case HMC_P_WR96: return Command::PostedWr96;
    case HMC_P_WR112: return Command::PostedWr112;
    case HMC_P_WR128: return Command::PostedWr128;
    case HMC_BWR: return Command::BitWrite;
    case HMC_P_BWR: return Command::PostedBitWrite;
    case HMC_TWOADD8: return Command::TwoAdd8;
    case HMC_P_TWOADD8: return Command::PostedTwoAdd8;
    case HMC_ADD16: return Command::Add16;
    case HMC_P_ADD16: return Command::PostedAdd16;
    case HMC_MD_RD: return Command::ModeRead;
    case HMC_MD_WR: return Command::ModeWrite;
    case HMC_FLOW_NULL: return Command::Null;
    case HMC_PRET: return Command::Pret;
    case HMC_TRET: return Command::Tret;
    case HMC_IRTRY: return Command::Irtry;
  }
  return Command::Null;
}

}  // namespace

extern "C" {

int hmcsim_init(struct hmcsim_t* hmc, uint32_t num_devs, uint32_t num_links,
                uint32_t num_vaults, uint32_t queue_depth, uint32_t num_banks,
                uint32_t num_drams, uint64_t capacity, uint32_t xbar_depth) {
  if (hmc == nullptr) return -1;
  if (num_vaults != num_links * spec::kVaultsPerQuad) return -1;

  auto shim = std::make_unique<Shim>();
  shim->config.num_devices = num_devs;
  DeviceConfig& dc = shim->config.device;
  dc.num_links = num_links;
  dc.banks_per_vault = num_banks;
  dc.drams_per_bank = (num_drams == 0) ? 8 : num_drams;
  dc.vault_depth = queue_depth;
  dc.xbar_depth = xbar_depth;
  dc.capacity_bytes = capacity * (u64{1} << 30);  // GB, as in the paper

  if (!ok(shim->config.validate())) return -1;

  shim->topo = Topology(num_devs, num_links);
  hmc->impl = shim.release();
  hmc->num_devs = num_devs;
  hmc->num_links = num_links;
  return 0;
}

int hmcsim_link_config(struct hmcsim_t* hmc, uint32_t src_dev,
                       uint32_t dest_dev, uint32_t src_link,
                       uint32_t dest_link, hmc_link_def_t type) {
  Shim* shim = shim_of(hmc);
  if (shim == nullptr || shim->frozen) return -1;
  Status s = Status::InvalidArgument;
  if (type == HMC_LINK_HOST_DEV) {
    // Hosts carry ids greater than the device count (paper §IV.B); the
    // device-side endpoint is (dest_dev, dest_link).
    if (src_dev < shim->config.num_devices) return -1;
    s = shim->topo.connect_host(CubeId{dest_dev}, LinkId{dest_link});
  } else {
    s = shim->topo.connect(CubeId{src_dev}, LinkId{src_link},
                           CubeId{dest_dev}, LinkId{dest_link});
  }
  return to_c_return(s);
}

int hmcsim_trace_handle(struct hmcsim_t* hmc, FILE* tfile) {
  Shim* shim = shim_of(hmc);
  if (shim == nullptr || tfile == nullptr) return -1;
  shim->trace_buf = std::make_unique<FileStreambuf>(tfile);
  shim->trace_stream = std::make_unique<std::ostream>(shim->trace_buf.get());
  if (shim->frozen) {
    shim->sim.tracer().add_sink(
        std::make_shared<TextSink>(*shim->trace_stream));
  }
  return 0;
}

int hmcsim_trace_level(struct hmcsim_t* hmc, uint32_t level) {
  Shim* shim = shim_of(hmc);
  if (shim == nullptr || level > 3) return -1;
  shim->pending_level = static_cast<TraceLevel>(level);
  if (shim->frozen) shim->sim.tracer().set_level(shim->pending_level);
  return 0;
}

int hmcsim_build_memrequest(struct hmcsim_t* hmc, uint8_t cub, uint64_t addr,
                            uint16_t tag, hmc_rqst_t type, uint8_t link,
                            const uint64_t* payload, uint64_t* rqst_head,
                            uint64_t* rqst_tail, uint64_t* packet) {
  Shim* shim = shim_of(hmc);
  if (shim == nullptr || packet == nullptr) return -1;
  const Command cmd = command_of(type);
  const usize payload_words = request_data_bytes(cmd) / 8;
  if (payload_words > 0 && payload == nullptr) return -1;

  PacketBuffer buf;
  const Status s = build_memrequest(cub, addr, tag, cmd, link,
                                    {payload, payload_words}, buf);
  if (!ok(s)) return to_c_return(s);
  for (usize i = 0; i < buf.word_count(); ++i) packet[i] = buf.words[i];
  if (rqst_head != nullptr) *rqst_head = buf.header();
  if (rqst_tail != nullptr) *rqst_tail = buf.tail();
  return 0;
}

int hmcsim_send(struct hmcsim_t* hmc, uint64_t* packet) {
  Shim* shim = shim_of(hmc);
  if (shim == nullptr || packet == nullptr) return -1;
  if (!ok(shim->freeze())) return -1;

  PacketBuffer buf;
  const u32 lng = field::lng_of(packet[0]);
  if (lng < spec::kMinPacketFlits || lng > spec::kMaxPacketFlits) return -1;
  buf.flits = lng;
  for (usize i = 0; i < buf.word_count(); ++i) buf.words[i] = packet[i];
  // A zero CRC asks the shim to seal the packet for the caller.
  if (field::crc_of(buf.tail()) == 0) seal_crc(buf);

  // The injection point is the root device exposing host link SLID.
  const u32 slid = field::request_slid_of(buf.tail());
  const Topology& topo = shim->sim.topology();
  for (u32 d = 0; d < shim->sim.num_devices(); ++d) {
    if (topo.endpoint(CubeId{d}, LinkId{slid}).kind == EndpointKind::Host) {
      return to_c_return(shim->sim.send(d, slid, buf));
    }
  }
  return -1;  // no root device exposes that host link
}

int hmcsim_recv(struct hmcsim_t* hmc, uint32_t dev, uint32_t link,
                uint64_t* packet) {
  Shim* shim = shim_of(hmc);
  if (shim == nullptr || packet == nullptr) return -1;
  if (!ok(shim->freeze())) return -1;
  PacketBuffer buf;
  const Status s = shim->sim.recv(dev, link, buf);
  if (!ok(s)) return to_c_return(s);
  for (usize i = 0; i < buf.word_count(); ++i) packet[i] = buf.words[i];
  return 0;
}

int hmcsim_decode_memresponse(struct hmcsim_t* hmc, const uint64_t* packet,
                              hmc_rsp_t* type, uint16_t* tag,
                              uint32_t* errstat) {
  if (hmc == nullptr || packet == nullptr) return -1;
  PacketBuffer buf;
  const u32 lng = field::lng_of(packet[0]);
  if (lng < spec::kMinPacketFlits || lng > spec::kMaxPacketFlits) return -1;
  buf.flits = lng;
  for (usize i = 0; i < buf.word_count(); ++i) buf.words[i] = packet[i];
  ResponseFields f;
  if (!ok(decode_response(buf, f))) return -1;
  if (type != nullptr) {
    switch (f.cmd) {
      case Command::ReadResponse: *type = HMC_RSP_RD; break;
      case Command::WriteResponse: *type = HMC_RSP_WR; break;
      case Command::ModeReadResponse: *type = HMC_RSP_MD_RD; break;
      case Command::ModeWriteResponse: *type = HMC_RSP_MD_WR; break;
      case Command::Error: *type = HMC_RSP_ERROR; break;
      default: *type = HMC_RSP_NONE; break;
    }
  }
  if (tag != nullptr) *tag = f.tag;
  if (errstat != nullptr) *errstat = static_cast<uint32_t>(f.errstat);
  return 0;
}

int hmcsim_clock(struct hmcsim_t* hmc) {
  Shim* shim = shim_of(hmc);
  if (shim == nullptr) return -1;
  if (!ok(shim->freeze())) return -1;
  shim->sim.clock();
  return 0;
}

uint64_t hmcsim_get_clock(struct hmcsim_t* hmc) {
  Shim* shim = shim_of(hmc);
  return (shim != nullptr && shim->frozen) ? shim->sim.now() : 0;
}

int hmcsim_jtag_reg_read(struct hmcsim_t* hmc, uint32_t dev, uint64_t reg,
                         uint64_t* result) {
  Shim* shim = shim_of(hmc);
  if (shim == nullptr || result == nullptr) return -1;
  if (!ok(shim->freeze())) return -1;
  return to_c_return(
      shim->sim.jtag_reg_read(dev, static_cast<u32>(reg), *result));
}

int hmcsim_jtag_reg_write(struct hmcsim_t* hmc, uint32_t dev, uint64_t reg,
                          uint64_t value) {
  Shim* shim = shim_of(hmc);
  if (shim == nullptr) return -1;
  if (!ok(shim->freeze())) return -1;
  return to_c_return(
      shim->sim.jtag_reg_write(dev, static_cast<u32>(reg), value));
}

int hmcsim_util_set_max_blocksize(struct hmcsim_t* hmc, uint32_t dev,
                                  uint32_t bsize) {
  Shim* shim = shim_of(hmc);
  // Devices are homogeneous: the block size applies to every cube, so any
  // valid device index is accepted.
  if (shim == nullptr || shim->frozen || dev >= shim->config.num_devices) {
    return -1;
  }
  if (bsize != 32 && bsize != 64 && bsize != 128 && bsize != 256) return -1;
  shim->config.device.max_block_bytes = bsize;
  return ok(shim->config.validate()) ? 0 : -1;
}

int hmcsim_timing_backend(struct hmcsim_t* hmc, const char* name) {
  Shim* shim = shim_of(hmc);
  if (shim == nullptr || shim->frozen || name == nullptr) return -1;
  TimingBackend backend;
  if (!timing_backend_from_string(name, &backend)) return -1;
  shim->config.device.timing_backend = backend;
  return ok(shim->config.validate()) ? 0 : -1;
}

int hmcsim_vault_timing_backend(struct hmcsim_t* hmc, uint32_t vault,
                                const char* name) {
  Shim* shim = shim_of(hmc);
  if (shim == nullptr || shim->frozen || name == nullptr) return -1;
  TimingBackend backend;
  if (!timing_backend_from_string(name, &backend)) return -1;
  auto& overrides = shim->config.device.vault_backends;
  const auto saved = overrides;
  std::erase_if(overrides,
                [&](const auto& e) { return e.first == vault; });
  overrides.emplace_back(vault, backend);
  if (ok(shim->config.validate())) return 0;
  overrides = saved;  // e.g. vault out of range: leave the config usable
  return -1;
}

int hmcsim_util_get_max_blocksize(struct hmcsim_t* hmc, uint32_t dev,
                                  uint32_t* bsize) {
  Shim* shim = shim_of(hmc);
  if (shim == nullptr || bsize == nullptr ||
      dev >= shim->config.num_devices) {
    return -1;
  }
  *bsize = static_cast<uint32_t>(shim->config.device.max_block_bytes);
  return 0;
}

namespace {

int decode_coord(struct hmcsim_t* hmc, uint64_t addr, uint32_t* out,
                 int which) {
  Shim* shim = shim_of(hmc);
  if (shim == nullptr || out == nullptr) return -1;
  const AddressMap map = shim->config.device.make_address_map();
  if (!map.valid() || !map.in_range(addr)) return -1;
  switch (which) {
    case 0: *out = map.vault_of(addr); break;
    case 1: *out = map.bank_of(addr); break;
    case 2: *out = map.vault_of(addr) / spec::kVaultsPerQuad; break;
    default: return -1;
  }
  return 0;
}

}  // namespace

int hmcsim_util_decode_vault(struct hmcsim_t* hmc, uint64_t addr,
                             uint32_t* vault) {
  return decode_coord(hmc, addr, vault, 0);
}

int hmcsim_util_decode_bank(struct hmcsim_t* hmc, uint64_t addr,
                            uint32_t* bank) {
  return decode_coord(hmc, addr, bank, 1);
}

int hmcsim_util_decode_quad(struct hmcsim_t* hmc, uint64_t addr,
                            uint32_t* quad) {
  return decode_coord(hmc, addr, quad, 2);
}

int hmcsim_get_stat(struct hmcsim_t* hmc, uint32_t dev, const char* name,
                    uint64_t* value) {
  Shim* shim = shim_of(hmc);
  if (shim == nullptr || name == nullptr || value == nullptr) return -1;
  if (!ok(shim->freeze())) return -1;
  if (dev >= shim->sim.num_devices()) return -1;
  const DeviceStats& s = shim->sim.stats(dev);
  const std::string_view key{name};
  if (key == "reads") *value = s.reads;
  else if (key == "writes") *value = s.writes;
  else if (key == "atomics") *value = s.atomics;
  else if (key == "mode_ops") *value = s.mode_ops;
  else if (key == "custom_ops") *value = s.custom_ops;
  else if (key == "responses") *value = s.responses;
  else if (key == "error_responses") *value = s.error_responses;
  else if (key == "bank_conflicts") *value = s.bank_conflicts;
  else if (key == "xbar_rqst_stalls") *value = s.xbar_rqst_stalls;
  else if (key == "xbar_rsp_stalls") *value = s.xbar_rsp_stalls;
  else if (key == "vault_rsp_stalls") *value = s.vault_rsp_stalls;
  else if (key == "latency_penalties") *value = s.latency_penalties;
  else if (key == "route_hops") *value = s.route_hops;
  else if (key == "misroutes") *value = s.misroutes;
  else if (key == "sends") *value = s.sends;
  else if (key == "send_stalls") *value = s.send_stalls;
  else if (key == "recvs") *value = s.recvs;
  else if (key == "flow_packets") *value = s.flow_packets;
  else if (key == "bytes_read") *value = s.bytes_read;
  else if (key == "bytes_written") *value = s.bytes_written;
  else if (key == "link_errors") *value = s.link_errors;
  else if (key == "link_retries") *value = s.link_retries;
  else if (key == "refreshes") *value = s.refreshes;
  else if (key == "row_hits") *value = s.row_hits;
  else if (key == "row_misses") *value = s.row_misses;
  else if (key == "dram_sbes") *value = s.dram_sbes;
  else if (key == "dram_dbes") *value = s.dram_dbes;
  else if (key == "scrub_steps") *value = s.scrub_steps;
  else if (key == "scrub_corrections") *value = s.scrub_corrections;
  else if (key == "scrub_uncorrectables") *value = s.scrub_uncorrectables;
  else if (key == "vault_failures") *value = s.vault_failures;
  else if (key == "vault_remaps") *value = s.vault_remaps;
  else if (key == "degraded_drops") *value = s.degraded_drops;
  else if (key == "link_crc_errors") *value = s.link_crc_errors;
  else if (key == "link_seq_errors") *value = s.link_seq_errors;
  else if (key == "link_abort_entries") *value = s.link_abort_entries;
  else if (key == "link_irtry_tx") *value = s.link_irtry_tx;
  else if (key == "link_irtry_rx") *value = s.link_irtry_rx;
  else if (key == "link_pret_tx") *value = s.link_pret_tx;
  else if (key == "link_tret_tx") *value = s.link_tret_tx;
  else if (key == "link_replayed_flits") *value = s.link_replayed_flits;
  else if (key == "link_token_stalls") *value = s.link_token_stalls;
  else if (key == "link_retrain_cycles") *value = s.link_retrain_cycles;
  else if (key == "link_failures") *value = s.link_failures;
  else if (key == "link_tokens_debited") *value = s.link_tokens_debited;
  else if (key == "link_tokens_returned") *value = s.link_tokens_returned;
  else if (key == "pcm_write_throttle_stalls") {
    *value = s.pcm_write_throttle_stalls;
  }
  else if (key == "cycles_skipped") *value = shim->sim.cycles_skipped();
  else return -1;
  return 0;
}

int hmcsim_get_stats(struct hmcsim_t* hmc, uint32_t dev,
                     struct hmcsim_stats* out) {
  Shim* shim = shim_of(hmc);
  if (shim == nullptr || out == nullptr) return -1;
  if (!ok(shim->freeze())) return -1;
  if (dev >= shim->sim.num_devices()) return -1;
  const DeviceStats& s = shim->sim.stats(dev);
  out->reads = s.reads;
  out->writes = s.writes;
  out->atomics = s.atomics;
  out->mode_ops = s.mode_ops;
  out->custom_ops = s.custom_ops;
  out->bytes_read = s.bytes_read;
  out->bytes_written = s.bytes_written;
  out->responses = s.responses;
  out->error_responses = s.error_responses;
  out->bank_conflicts = s.bank_conflicts;
  out->xbar_rqst_stalls = s.xbar_rqst_stalls;
  out->xbar_rsp_stalls = s.xbar_rsp_stalls;
  out->vault_rsp_stalls = s.vault_rsp_stalls;
  out->latency_penalties = s.latency_penalties;
  out->route_hops = s.route_hops;
  out->misroutes = s.misroutes;
  out->link_errors = s.link_errors;
  out->link_retries = s.link_retries;
  out->refreshes = s.refreshes;
  out->row_hits = s.row_hits;
  out->row_misses = s.row_misses;
  out->sends = s.sends;
  out->send_stalls = s.send_stalls;
  out->recvs = s.recvs;
  out->flow_packets = s.flow_packets;
  out->dram_sbes = s.dram_sbes;
  out->dram_dbes = s.dram_dbes;
  out->scrub_steps = s.scrub_steps;
  out->scrub_corrections = s.scrub_corrections;
  out->scrub_uncorrectables = s.scrub_uncorrectables;
  out->vault_failures = s.vault_failures;
  out->vault_remaps = s.vault_remaps;
  out->degraded_drops = s.degraded_drops;
  out->link_crc_errors = s.link_crc_errors;
  out->link_seq_errors = s.link_seq_errors;
  out->link_abort_entries = s.link_abort_entries;
  out->link_irtry_tx = s.link_irtry_tx;
  out->link_irtry_rx = s.link_irtry_rx;
  out->link_pret_tx = s.link_pret_tx;
  out->link_tret_tx = s.link_tret_tx;
  out->link_replayed_flits = s.link_replayed_flits;
  out->link_token_stalls = s.link_token_stalls;
  out->link_retrain_cycles = s.link_retrain_cycles;
  out->link_failures = s.link_failures;
  out->link_tokens_debited = s.link_tokens_debited;
  out->link_tokens_returned = s.link_tokens_returned;
  out->pcm_write_throttle_stalls = s.pcm_write_throttle_stalls;
  return 0;
}

int hmcsim_watchdog_fired(struct hmcsim_t* hmc, FILE* out) {
  Shim* shim = shim_of(hmc);
  if (shim == nullptr) return -1;
  if (!shim->sim.watchdog_fired()) return 0;
  if (out != nullptr) {
    const std::string report = shim->sim.watchdog_report();
    std::fwrite(report.data(), 1, report.size(), out);
  }
  return 1;
}

int hmcsim_lifecycle_enable(struct hmcsim_t* hmc) {
  Shim* shim = shim_of(hmc);
  if (shim == nullptr) return -1;
  if (shim->lifecycle) return 0;  /* idempotent */
  shim->lifecycle = std::make_shared<LifecycleSink>();
  if (shim->frozen) shim->sim.add_lifecycle_observer(shim->lifecycle);
  return 0;
}

int hmcsim_lifecycle_stats(struct hmcsim_t* hmc, hmc_op_class_t op,
                           hmc_lifecycle_segment_t segment,
                           hmcsim_latency_t* out) {
  Shim* shim = shim_of(hmc);
  if (shim == nullptr || out == nullptr || !shim->lifecycle) return -1;
  if (static_cast<int>(segment) < static_cast<int>(HMC_LC_XBAR) ||
      static_cast<int>(segment) > static_cast<int>(HMC_LC_TOTAL)) {
    return -1;
  }
  const auto seg = static_cast<LifecycleSegment>(segment);
  LatencyStats stats;
  switch (op) {
    case HMC_OP_READ: stats = shim->lifecycle->stats(OpClass::Read, seg); break;
    case HMC_OP_WRITE:
      stats = shim->lifecycle->stats(OpClass::Write, seg);
      break;
    case HMC_OP_ATOMIC:
      stats = shim->lifecycle->stats(OpClass::Atomic, seg);
      break;
    case HMC_OP_OTHER:
      stats = shim->lifecycle->stats(OpClass::Other, seg);
      break;
    case HMC_OP_ALL: stats = shim->lifecycle->merged(seg); break;
    default: return -1;
  }
  out->count = stats.count;
  out->mean = stats.mean();
  out->min = stats.count == 0 ? 0 : stats.min;
  out->max = stats.max;
  out->p50 = stats.percentile(0.50);
  out->p95 = stats.percentile(0.95);
  out->p99 = stats.percentile(0.99);
  return 0;
}

int hmcsim_dump_stats_json(struct hmcsim_t* hmc, FILE* out) {
  Shim* shim = shim_of(hmc);
  if (shim == nullptr || out == nullptr) return -1;
  if (!ok(shim->freeze())) return -1;
  FileStreambuf buf(out);
  std::ostream os(&buf);
  write_stats_json(os, shim->sim);
  os.flush();
  return 0;
}

int hmcsim_profile_enable(struct hmcsim_t* hmc) {
  Shim* shim = shim_of(hmc);
  if (shim == nullptr || shim->frozen) return -1;
  shim->config.device.self_profile = true;
  return 0;
}

int hmcsim_telemetry_interval(struct hmcsim_t* hmc, uint32_t cycles) {
  Shim* shim = shim_of(hmc);
  if (shim == nullptr || shim->frozen) return -1;
  shim->config.device.telemetry_interval_cycles = cycles;
  return 0;
}

int hmcsim_flight_recorder_depth(struct hmcsim_t* hmc, uint32_t depth) {
  Shim* shim = shim_of(hmc);
  if (shim == nullptr || shim->frozen) return -1;
  shim->config.device.flight_recorder_depth = depth;
  return 0;
}

int hmcsim_chaos_invariants(struct hmcsim_t* hmc, uint32_t cadence) {
  Shim* shim = shim_of(hmc);
  if (shim == nullptr || shim->frozen) return -1;
  shim->config.device.chaos_invariants = cadence;
  return 0;
}

int hmcsim_chaos_plan(struct hmcsim_t* hmc, const char* plan, FILE* err) {
  Shim* shim = shim_of(hmc);
  if (shim == nullptr || plan == nullptr) return -1;
  const auto report = [err](const std::string& diag) {
    if (err != nullptr && !diag.empty()) {
      std::fprintf(err, "%s\n", diag.c_str());
    }
    return -1;
  };
  ChaosPlanParseResult parsed = parse_chaos_plan_string(plan);
  if (!parsed.ok) return report(parsed.error);
  if (!ok(shim->freeze())) return report("topology rejected");
  std::string diag;
  if (!ok(shim->sim.set_chaos_plan(std::move(parsed.plan), &diag))) {
    return report(diag);
  }
  return 0;
}

int hmcsim_chaos_violated(struct hmcsim_t* hmc, FILE* out) {
  Shim* shim = shim_of(hmc);
  if (shim == nullptr) return -1;
  if (!shim->sim.chaos_violated()) return 0;
  if (out != nullptr) {
    const std::string& report = shim->sim.chaos_report();
    std::fwrite(report.data(), 1, report.size(), out);
  }
  return 1;
}

int hmcsim_dump_profile(struct hmcsim_t* hmc, FILE* out) {
  Shim* shim = shim_of(hmc);
  if (shim == nullptr || out == nullptr) return -1;
  if (!shim->frozen || shim->sim.profiler() == nullptr) return -1;
  shim->sim.flush_observability();
  std::string text = format_profile_table(shim->sim);
  const std::string telemetry = format_telemetry_table(shim->sim);
  if (!telemetry.empty()) {
    text += '\n';
    text += telemetry;
  }
  std::fwrite(text.data(), 1, text.size(), out);
  return 0;
}

int hmcsim_dump_flight_recorder(struct hmcsim_t* hmc, FILE* out) {
  Shim* shim = shim_of(hmc);
  if (shim == nullptr || out == nullptr || !shim->frozen) return -1;
  FileStreambuf buf(out);
  std::ostream os(&buf);
  const bool dumped = shim->sim.dump_flight_recorder(os);
  os.flush();
  return dumped ? 0 : -1;
}

int hmcsim_dump_flight_recorder_chrome(struct hmcsim_t* hmc, FILE* out) {
  Shim* shim = shim_of(hmc);
  if (shim == nullptr || out == nullptr || !shim->frozen) return -1;
  FileStreambuf buf(out);
  std::ostream os(&buf);
  const bool dumped = shim->sim.dump_flight_recorder_chrome(os);
  os.flush();
  return dumped ? 0 : -1;
}

int hmcsim_register_cmc(struct hmcsim_t* hmc, uint8_t raw_cmd,
                        uint32_t rqst_flits, uint32_t rsp_flits,
                        uint32_t access_bytes, hmc_cmc_handler_t handler,
                        void* user) {
  Shim* shim = shim_of(hmc);
  if (shim == nullptr || handler == nullptr) return -1;
  if (!ok(shim->freeze())) return -1;
  CustomCommandDef def;
  def.name = "CMC_" + std::to_string(raw_cmd);
  def.request_flits = rqst_flits;
  def.response_flits = rsp_flits;
  def.access_bytes = access_bytes;
  def.handler = [handler, user](std::span<u64> memory,
                                std::span<const u64> operand,
                                std::span<u64> response) {
    handler(memory.data(), operand.data(), response.data(), user);
  };
  return to_c_return(shim->sim.register_custom_command(raw_cmd,
                                                       std::move(def)));
}

int hmcsim_build_custom_request(struct hmcsim_t* hmc, uint8_t cub,
                                uint64_t addr, uint16_t tag, uint8_t raw_cmd,
                                uint8_t link, const uint64_t* payload,
                                uint64_t* packet) {
  Shim* shim = shim_of(hmc);
  if (shim == nullptr || packet == nullptr || !shim->frozen) return -1;
  const CustomCommandDef* def = shim->sim.custom_commands().find(raw_cmd);
  if (def == nullptr) return -1;
  const usize payload_words = usize{def->request_flits} * 2 - 2;
  if (payload_words > 0 && payload == nullptr) return -1;
  PacketBuffer buf;
  const Status s = build_custom_request(shim->sim.custom_commands(), raw_cmd,
                                        cub, addr, tag, link,
                                        {payload, payload_words}, buf);
  if (!ok(s)) return to_c_return(s);
  for (usize i = 0; i < buf.word_count(); ++i) packet[i] = buf.words[i];
  return 0;
}

namespace {

/// Backing store for hmcsim_last_error.  Thread-local so concurrent
/// simulators on different threads cannot clobber each other's reason.
thread_local std::string g_last_error;

}  // namespace

int hmcsim_checkpoint_save(struct hmcsim_t* hmc, const char* path) {
  Shim* shim = shim_of(hmc);
  if (shim == nullptr || path == nullptr) {
    g_last_error = "invalid handle or path";
    return -1;
  }
  if (!ok(shim->freeze())) {
    g_last_error = "simulator bring-up failed";
    return -1;
  }
  CheckpointError err;
  if (!ok(shim->sim.save_checkpoint_file(path, &err))) {
    g_last_error = err.message();
    return -1;
  }
  g_last_error.clear();
  return 0;
}

int hmcsim_checkpoint_restore(struct hmcsim_t* hmc, const char* path) {
  Shim* shim = shim_of(hmc);
  if (shim == nullptr || path == nullptr) {
    g_last_error = "invalid handle or path";
    return -1;
  }
  CheckpointError err;
  if (!ok(shim->sim.restore_checkpoint_file(path, &err))) {
    g_last_error = err.message();
    return -1;
  }
  // The restored simulator is initialized: mirror its configuration into
  // the shim and freeze the topology, wiring the deferred trace/lifecycle
  // hooks exactly as the first send/clock would have.
  shim->config = shim->sim.config();
  if (!shim->frozen) {
    shim->sim.tracer().set_level(shim->pending_level);
    if (shim->trace_stream) {
      shim->sim.tracer().add_sink(
          std::make_shared<TextSink>(*shim->trace_stream));
    }
    if (shim->lifecycle) shim->sim.add_lifecycle_observer(shim->lifecycle);
    shim->frozen = true;
  }
  hmc->num_devs = shim->config.num_devices;
  hmc->num_links = shim->config.device.num_links;
  g_last_error.clear();
  return 0;
}

const char* hmcsim_last_error(void) { return g_last_error.c_str(); }

int hmcsim_free(struct hmcsim_t* hmc) {
  Shim* shim = shim_of(hmc);
  if (shim == nullptr) return -1;
  if (shim->frozen) shim->sim.tracer().flush();
  delete shim;
  hmc->impl = nullptr;
  return 0;
}

}  // extern "C"
