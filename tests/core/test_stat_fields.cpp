// perfbench keeps its own hand-written list of the DeviceStats counters
// (PERFBENCH_STATS_FIELDS in perfbench/perfbench.cpp), which its behaviour
// digests print.  This test reads that file as text: the list must name
// every kStatFields entry exactly once and nothing else, so a new counter
// cannot miss the benchmark's digest.  The two lists differ in order, so
// order is not checked.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string>

#include "core/stats.hpp"

namespace hmcsim {
namespace {

TEST(StatFields, PerfbenchDigestListNamesEveryCounterOnce) {
  std::ifstream in(HMCSIM_PERFBENCH_SOURCE);
  ASSERT_TRUE(in.is_open()) << HMCSIM_PERFBENCH_SOURCE;
  std::ostringstream text;
  text << in.rdbuf();
  const std::string src = std::move(text).str();
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

}  // namespace
}  // namespace hmcsim
