// Checkpoint restore under hostile input: a structure-aware mutator
// derives >10k corrupted checkpoints from a valid base — truncations, bit
// flips, word-level splices, forged lengths and versions — and every one
// must come back as a typed CheckpointError.  No abort, no sanitizer
// report, no silent acceptance of damaged state (the section CRCs make a
// mutated-but-accepted stream effectively impossible).
//
// The section CRCs also stop that mutator before any payload decoder, so a
// second one edits a payload word and reseals its CRC: behind a valid frame
// a forged value must still fail typed, or restore into a machine that
// clocks and re-saves cleanly.
//
// Labeled fuzz+slow, not tier1: the loop is minutes-scale under
// sanitizers and the merge gate covers the same paths via
// test_checkpoint_compat.cpp.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/random.hpp"
#include "core/simulator.hpp"
#include "tests/core/checkpoint_forge.hpp"
#include "tests/core/helpers.hpp"
#include "workload/driver.hpp"

namespace hmcsim {
namespace {

/// A mid-flight simulator with host-driver state attached: every section
/// type (CFG, TOPO, CLK, DEVC, WDOG, HOST) is present in the base stream.
/// Mixed per-vault timing backends put non-empty v7 backend-state frames
/// (kind + length + blob) and the CFG override list in the mutator's
/// blast radius too.  Traffic stays inside `window` bytes, which bounds
/// the resident pages and so the stream size.
std::string make_base_checkpoint(u64 window = u64{1} << 20) {
  DeviceConfig dc = test::small_device();
  dc.vault_backends = {{1, TimingBackend::PcmLike},
                       {2, TimingBackend::GenericDdr}};
  dc.pcm_write_gap_cycles = 12;
  Simulator sim = test::make_simple_sim(dc);
  GeneratorConfig gc;
  gc.capacity_bytes = window;
  gc.seed = 7;
  RandomAccessGenerator gen(gc);
  DriverConfig dcfg;
  dcfg.total_requests = 400;
  HostDriver driver(sim, gen, dcfg);
  DriverResult result;
  for (int i = 0; i < 200 && driver.step(result); ++i) {}
  std::ostringstream os;
  const std::string host = save_host_state(driver, result);
  EXPECT_EQ(sim.save_checkpoint(os, nullptr, host), Status::Ok);
  return os.str();
}

/// One structure-aware mutation.  The container is a sequence of 8-byte LE
/// words, so word-aligned edits with boundary values (0, ~0, off-by-one)
/// probe length/count/version handling far better than plain bit noise —
/// which is still mixed in for coverage of the byte-level paths.
std::string mutate(const std::string& base, SplitMix64& rng) {
  std::string m = base;
  if (m.size() < 16) {  // too short for word edits (stacked truncation)
    m += static_cast<char>(rng.next_below(256));
    return m;
  }
  switch (rng.next_below(6)) {
    case 0:  // truncate anywhere, including inside the magic
      m.resize(rng.next_below(m.size()));
      break;
    case 1:  // flip a single bit
      m[rng.next_below(m.size())] ^=
          static_cast<char>(1u << rng.next_below(8));
      break;
    case 2: {  // overwrite an aligned word with a boundary value
      const u64 values[] = {0ull,          ~0ull,         1ull,
                            m.size(),      m.size() + 1,  u64{1} << 32,
                            (u64{1} << 32) + 1, 0x7fffffffffffffffull};
      const u64 v = values[rng.next_below(std::size(values))];
      const usize word = rng.next_below(m.size() / 8);
      for (usize b = 0; b < 8; ++b) {
        m[word * 8 + b] = static_cast<char>(v >> (8 * b));
      }
      break;
    }
    case 3: {  // splice: duplicate a random chunk over another position
      const usize len = 1 + rng.next_below(256);
      const usize src = rng.next_below(m.size());
      const usize dst = rng.next_below(m.size());
      for (usize i = 0; i < len && src + i < m.size() && dst + i < m.size();
           ++i) {
        m[dst + i] = m[src + i];
      }
      break;
    }
    case 4: {  // forge the version word (offset 8)
      const u64 v = rng.next_below(2) == 0 ? rng.next_below(300)
                                           : rng.next();
      for (usize b = 0; b < 8; ++b) {
        m[8 + b] = static_cast<char>(v >> (8 * b));
      }
      break;
    }
    case 5: {  // append garbage past the trailer
      const usize len = 1 + rng.next_below(64);
      for (usize i = 0; i < len; ++i) {
        m += static_cast<char>(rng.next_below(256));
      }
      break;
    }
  }
  return m;
}

TEST(CheckpointFuzz, MutatedCheckpointsAlwaysFailTyped) {
  const std::string base = make_base_checkpoint();
  ASSERT_GT(base.size(), 64u);
  SplitMix64 rng(0xC4EC4);

  int rejected = 0;
  int accepted = 0;
  for (int iter = 0; iter < 12000; ++iter) {
    std::string m = mutate(base, rng);
    if (rng.next_below(4) == 0) m = mutate(m, rng);  // stacked damage
    if (m == base) continue;

    std::istringstream is(m);
    Simulator sim;
    CheckpointError err;
    std::string host_blob;
    const Status st = sim.restore_checkpoint(is, &err, &host_blob);
    if (ok(st)) {
      // Acceptance is legal in exactly one case: the damage lives entirely
      // past the trailer, where a stream consumer never reads (the trailer
      // terminates parsing, so a checkpoint can sit inside a larger
      // stream).  Any accepted input whose *consumed* bytes differ from
      // the base is silent corruption — the bug this fuzzer exists for.
      ++accepted;
      ASSERT_GT(m.size(), base.size()) << "iter " << iter;
      ASSERT_EQ(m.compare(0, base.size(), base), 0)
          << "iter " << iter << ": mutation inside the stream was accepted";
      EXPECT_TRUE(sim.initialized());
    } else {
      ++rejected;
      EXPECT_NE(err.code, CheckpointErrorCode::None)
          << "untyped failure at iter " << iter;
      EXPECT_FALSE(err.message().empty());
    }
  }
  // Mutations that touch consumed bytes must all land in `rejected` (about
  // 5 of the 6 mutation classes); `accepted` is the unread-tail class.
  EXPECT_GT(rejected, 9000);
  EXPECT_GT(accepted, 0);
}

/// One resealed payload edit: a boundary value written over one word of one
/// section, with that section's CRC recomputed.  DEVC edits are steered
/// off the raw page bytes (any value is legal there) onto the counters and
/// registers, the page indices, and the queue and RAS records after them.
std::string reseal_mutate(const std::string& base,
                          const std::vector<test::CkptSection>& sections,
                          SplitMix64& rng) {
  std::string m = base;
  const test::CkptSection& s = sections[rng.next_below(sections.size())];
  const usize words = s.len / 8;
  usize word = rng.next_below(words);
  if (s.type == ckpt::kSectionDevice) {
    constexpr usize kPageWords = 1 + SparseStore::kPageBytes / 8;
    const usize count_word = test::kDevcPageCountWord;
    const usize pages =
        static_cast<usize>(test::load_word(base, s.payload + 8 * count_word));
    const usize tail = count_word + 1 + pages * kPageWords;
    switch (rng.next_below(4)) {
      case 0:  // counters, registers, page count
        word = rng.next_below(count_word + 1);
        break;
      case 1:  // a page index
        if (pages > 0) {
          word = count_word + 1 + rng.next_below(pages) * kPageWords;
        }
        break;
      default:  // link and vault queues, bank timing, RAS block
        word = tail + rng.next_below(words - tail);
        break;
    }
  }
  const u64 original = test::load_word(base, s.payload + 8 * word);
  const u64 values[] = {0, 1, 2, 3, 7, 8, 200, 255, 256, 4096,
                        0xffffffffull, u64{1} << 32,
                        (u64{1} << 52) + rng.next_below(16), u64{1} << 63,
                        ~u64{0} - 1, ~u64{0}, original + 1, original - 1};
  test::forge_word(m, s, word, values[rng.next_below(std::size(values))]);
  return m;
}

TEST(CheckpointFuzz, ResealedPayloadsFailTypedOrRunClean) {
  // A 64 KiB window keeps the stream small; the records behind the pages
  // are the same.
  const std::string base = make_base_checkpoint(u64{1} << 16);
  std::vector<test::CkptSection> sections;
  for (const test::CkptSection& s : test::checkpoint_sections(base)) {
    // HOST is an opaque pass-through blob (its own fuzzer is below).
    if (s.type != ckpt::kSectionHost && s.len >= 8) sections.push_back(s);
  }
  ASSERT_EQ(sections.size(), 6u);  // CFG TOPO CLK DEVC WDOG CHAO

  SplitMix64 rng(0x5EA1ED);
  int rejected = 0;
  int accepted = 0;
  for (int iter = 0; iter < 1500; ++iter) {
    const std::string m = reseal_mutate(base, sections, rng);
    std::istringstream is(m);
    Simulator sim;
    CheckpointError err;
    if (!ok(sim.restore_checkpoint(is, &err, nullptr))) {
      ++rejected;
      ASSERT_NE(err.code, CheckpointErrorCode::None)
          << "untyped failure at iter " << iter;
      ASSERT_NE(err.code, CheckpointErrorCode::SectionCrcMismatch)
          << "iter " << iter << ": the reseal did not hold";
      continue;
    }
    // The value was legal: the machine must run on it and save it back.
    ++accepted;
    for (int c = 0; c < 64; ++c) sim.clock();
    std::ostringstream resaved;
    ASSERT_EQ(sim.save_checkpoint(resaved), Status::Ok) << "iter " << iter;
    Simulator again;
    std::istringstream is2(resaved.str());
    CheckpointError err2;
    ASSERT_EQ(again.restore_checkpoint(is2, &err2, nullptr), Status::Ok)
        << "iter " << iter << ": " << err2.message();
  }
  // Both outcomes must be common, or the mutator is not reaching the
  // decoders (all rejected) or not probing their limits (all accepted).
  EXPECT_GT(rejected, 200);
  EXPECT_GT(accepted, 200);
}

TEST(CheckpointFuzz, MutatedHostBlobsAlwaysFailCleanly) {
  Simulator sim = test::make_simple_sim();
  GeneratorConfig gc;
  gc.capacity_bytes = 1u << 20;
  gc.seed = 7;
  RandomAccessGenerator gen(gc);
  DriverConfig dcfg;
  dcfg.total_requests = 400;
  HostDriver driver(sim, gen, dcfg);
  DriverResult result;
  for (int i = 0; i < 200 && driver.step(result); ++i) {}
  const std::string base = save_host_state(driver, result);
  ASSERT_FALSE(base.empty());

  SplitMix64 rng(0xB10B);
  for (int iter = 0; iter < 4000; ++iter) {
    std::string m = mutate(base, rng);
    if (m == base) continue;
    // A fresh driver over a fresh identically-built sim, as resume does.
    Simulator sim2 = test::make_simple_sim();
    RandomAccessGenerator gen2(gc);
    HostDriver driver2(sim2, gen2, dcfg);
    DriverResult result2;
    (void)restore_host_state(m, driver2, result2);  // must not crash
  }
  SUCCEED();
}

}  // namespace
}  // namespace hmcsim
