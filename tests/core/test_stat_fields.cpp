// Two hand-written lists of the DeviceStats counters live outside
// kStatFields, and these tests read each file as text:
//   * perfbench's PERFBENCH_STATS_FIELDS (perfbench/perfbench.cpp), which
//     its behaviour digests print, must name every counter exactly once
//     and nothing else, in any order;
//   * the C API's struct hmcsim_stats (src/capi/hmc_sim.h) must name
//     exactly kStatFields' counters in kStatFields' order, because
//     hmcsim_get_stats fills its words by that order.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "core/stats.hpp"

namespace hmcsim {
namespace {

std::string read_text(const char* path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return std::move(text).str();
}

TEST(StatFields, PerfbenchDigestListNamesEveryCounterOnce) {
  const std::string src = read_text(HMCSIM_PERFBENCH_SOURCE);
  // The macro runs from its #define to the first line not continued by a
  // backslash.
  const std::string head = "#define PERFBENCH_STATS_FIELDS(X)";
  const usize begin = src.find(head);
  ASSERT_NE(begin, std::string::npos);
  usize end = begin;
  while ((end = src.find('\n', end)) != std::string::npos &&
         src[end - 1] == '\\') {
    ++end;
  }
  const std::string body =
      src.substr(begin + head.size(), end - begin - head.size());
  std::map<std::string, int> named;
  const std::regex entry(R"(X\((\w+)\))");
  for (std::sregex_iterator it(body.begin(), body.end(), entry), last;
       it != last; ++it) {
    ++named[(*it)[1]];
  }
  for (const StatField& f : kStatFields) {
    const auto it = named.find(std::string(f.name));
    EXPECT_EQ(it == named.end() ? 0 : it->second, 1) << f.name;
    if (it != named.end()) named.erase(it);
  }
  for (const auto& [name, count] : named) {
    ADD_FAILURE() << "PERFBENCH_STATS_FIELDS names " << name
                  << ", which is not a DeviceStats counter";
  }
}

TEST(StatFields, CApiStructNamesEveryCounterInOrder) {
  const std::string src = read_text(HMCSIM_CAPI_HEADER);
  const usize begin = src.find("struct hmcsim_stats {");
  ASSERT_NE(begin, std::string::npos);
  const usize end = src.find("};", begin);
  ASSERT_NE(end, std::string::npos);
  const std::string body = src.substr(begin, end - begin);
  std::vector<std::string> named;
  const std::regex member(R"(uint64_t\s+(\w+)\s*;)");
  for (std::sregex_iterator it(body.begin(), body.end(), member), last;
       it != last; ++it) {
    named.push_back((*it)[1]);
  }
  std::vector<std::string> expected;
  for (const StatField& f : kStatFields) expected.emplace_back(f.name);
  EXPECT_EQ(named, expected);
}

}  // namespace
}  // namespace hmcsim
