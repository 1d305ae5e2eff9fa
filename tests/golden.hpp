// The one compare-or-regenerate step of every text golden under
// tests/golden/.  After an intentional change, regenerate and review the
// diff like any other source change:
//
//   HMCSIM_UPDATE_GOLDEN=1 ctest --test-dir build -R <suite>
//   git diff tests/golden/
//
// Never regenerate to paper over a divergence you did not intend.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace hmcsim::test {

/// Compare `got` with the golden file `name` (relative to tests/golden/),
/// failing with the first differing line; with HMCSIM_UPDATE_GOLDEN set,
/// rewrite the file instead.  Returns the golden's text as compared: `got`
/// itself after a rewrite, empty when the file is missing.
inline std::string expect_golden(const std::string& name,
                                 const std::string& got) {
  const std::filesystem::path path =
      std::filesystem::path(HMCSIM_GOLDEN_DIR) / name;
  if (std::getenv("HMCSIM_UPDATE_GOLDEN") != nullptr) {
    std::filesystem::create_directories(path.parent_path());
    std::ofstream out(path, std::ios::binary);
    out << got;
    EXPECT_TRUE(out.good()) << "cannot write " << path;
    return got;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    ADD_FAILURE() << "missing golden file " << path
                  << "; regenerate with HMCSIM_UPDATE_GOLDEN=1";
    return {};
  }
  std::ostringstream want;
  want << in.rdbuf();
  std::string expected = std::move(want).str();
  if (got == expected) return expected;
  std::istringstream ga(expected);
  std::istringstream gb(got);
  std::string la;
  std::string lb;
  for (std::size_t line = 1;; ++line) {
    const bool ha = static_cast<bool>(std::getline(ga, la));
    const bool hb = static_cast<bool>(std::getline(gb, lb));
    if (ha && hb && la == lb) continue;
    ADD_FAILURE() << name << " diverges from its golden at line " << line
                  << "\n  golden: " << (ha ? la : "<eof>")
                  << "\n  got:    " << (hb ? lb : "<eof>")
                  << "\nRegenerate with HMCSIM_UPDATE_GOLDEN=1 only for an "
                     "intentional change, and review the diff.";
    break;
  }
  return expected;
}

}  // namespace hmcsim::test
