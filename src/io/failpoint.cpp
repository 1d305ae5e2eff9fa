#include "io/failpoint.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <unistd.h>

#include "common/number.hpp"

namespace hmcsim::io {
namespace {

// Process-global armed state.  Checkpoint writes are serialized by
// contract (one simulator saving at a time), so plain globals suffice;
// tests arm, observe one failure, and the failpoint disarms itself.
FailMode g_mode = FailMode::None;
u64 g_trigger = 0;
u64 g_written = 0;

}  // namespace

void arm_failpoint(FailMode mode, u64 trigger_bytes) {
  g_mode = mode;
  g_trigger = trigger_bytes;
  g_written = 0;
}

void disarm_failpoint() {
  g_mode = FailMode::None;
  g_trigger = 0;
  g_written = 0;
}

bool failpoint_armed() { return g_mode != FailMode::None; }

bool arm_failpoint_from_env() {
  const char* spec = std::getenv("HMCSIM_FAILPOINT");
  if (spec == nullptr || spec[0] == '\0') return false;
  const char* colon = std::strchr(spec, ':');
  if (colon == nullptr) {
    std::fprintf(stderr, "HMCSIM_FAILPOINT: expected <mode>:<bytes>, got '%s'\n",
                 spec);
    return false;
  }
  const std::string mode(spec, colon);
  u64 trigger = 0;
  if (!parse_unsigned(colon + 1, trigger)) {
    std::fprintf(stderr, "HMCSIM_FAILPOINT: bad byte offset in '%s'\n", spec);
    return false;
  }
  FailMode m = FailMode::None;
  if (mode == "short") {
    m = FailMode::ShortWrite;
  } else if (mode == "enospc") {
    m = FailMode::Enospc;
  } else if (mode == "eio") {
    m = FailMode::Eio;
  } else if (mode == "crash") {
    m = FailMode::Crash;
  } else {
    std::fprintf(stderr, "HMCSIM_FAILPOINT: unknown mode '%s'\n",
                 mode.c_str());
    return false;
  }
  arm_failpoint(m, trigger);
  return true;
}

usize failpoint_clamp_write(usize want, int* injected_errno) {
  switch (g_mode) {
    case FailMode::None:
    case FailMode::Crash:
      return want;
    case FailMode::ShortWrite:
    case FailMode::Enospc:
    case FailMode::Eio:
      break;
  }
  const u64 remaining = g_trigger > g_written ? g_trigger - g_written : 0;
  if (want <= remaining) return want;
  if (remaining > 0) return static_cast<usize>(remaining);
  if (injected_errno != nullptr) {
    *injected_errno = g_mode == FailMode::Enospc ? ENOSPC : EIO;
  }
  disarm_failpoint();  // one failure per arming
  return 0;
}

void failpoint_note_written(usize n) {
  if (g_mode == FailMode::None) return;
  g_written += n;
  if (g_mode == FailMode::Crash && g_written >= g_trigger) {
    // Simulated kill -9: no stream flushes, no fsync, no rename — the torn
    // temporary file is all that survives.
    _exit(9);
  }
}

}  // namespace hmcsim::io
