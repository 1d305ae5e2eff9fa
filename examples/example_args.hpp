// The examples' numeric arguments read the one number spelling every
// hmcsim input reads (common/number.hpp): decimal, or hex after 0x.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <limits>

#include "common/number.hpp"

namespace hmcsim::examples {

/// argv[i] as a number no larger than `max`, or `fallback` when argv has
/// no argument i.  Junk or a larger value prints the usage line (`args`
/// lists the program's arguments) and exits 2.
inline u64 number_arg(int argc, char** argv, int i, u64 fallback,
                      const char* args,
                      u64 max = std::numeric_limits<u64>::max()) {
  if (i >= argc) return fallback;
  u64 value = 0;
  if (parse_unsigned(argv[i], value) && value <= max) return value;
  std::fprintf(stderr, "bad number '%s'\nusage: %s %s\n", argv[i], argv[0],
               args);
  std::exit(2);
}

}  // namespace hmcsim::examples
