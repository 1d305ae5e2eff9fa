#include "workload/trace_file.hpp"

#include <istream>
#include <ostream>
#include <sstream>

#include "common/limits.hpp"
#include "common/number.hpp"
#include "io/bounded_line.hpp"

namespace hmcsim {

bool parse_trace_request(const std::string& line, RequestDesc& out,
                         bool* is_comment, std::string* why) {
  if (is_comment != nullptr) *is_comment = false;
  const auto fail = [why](const std::string& reason) {
    if (why != nullptr) *why = reason;
    return false;
  };
  std::istringstream fields(line);
  std::string op;
  if (!(fields >> op)) {
    if (is_comment != nullptr) *is_comment = true;  // blank line
    return false;
  }
  if (op[0] == '#') {
    if (is_comment != nullptr) *is_comment = true;
    return false;
  }
  if (op != "R" && op != "W" && op != "A") {
    return fail("unknown op '" + op + "' (want R, W, or A)");
  }

  std::string addr_text;
  if (!(fields >> addr_text)) return fail("missing address");
  u64 addr = 0;
  if (!parse_unsigned(addr_text, addr)) {
    return fail("bad address '" + addr_text + "'");
  }
  if (addr > spec::kAddrMask) {
    return fail("address '" + addr_text + "' above the 34-bit device space");
  }

  u32 bytes = 16;
  if (op != "A") {
    if (!(fields >> bytes)) return fail("missing or non-numeric size");
    if (bytes < 16 || bytes > spec::kMaxPayloadBytes || bytes % 16 != 0) {
      return fail("bad size " + std::to_string(bytes) +
                  " (want 16..128 in multiples of 16)");
    }
  }

  // Trailing garbage invalidates the line (catches column mistakes).
  std::string rest;
  if (fields >> rest) return fail("trailing garbage '" + rest + "'");

  out.addr = addr;
  out.cmd = op == "R"   ? read_command_for(bytes)
            : op == "W" ? write_command_for(bytes)
                        : Command::TwoAdd8;
  return true;
}

void write_request_trace(std::ostream& os,
                         std::span<const RequestDesc> requests) {
  for (const RequestDesc& r : requests) {
    if (is_atomic(r.cmd)) {
      os << "A 0x" << std::hex << r.addr << std::dec << '\n';
    } else {
      os << (is_read(r.cmd) ? 'R' : 'W') << " 0x" << std::hex << r.addr
         << std::dec << ' ' << access_bytes(r.cmd) << '\n';
    }
  }
}

TraceFileGenerator::TraceFileGenerator(std::istream& in) {
  std::string line;
  usize line_no = 0;
  for (;;) {
    const io::LineRead lr = io::getline_bounded(in, line);
    if (lr == io::LineRead::Eof) break;
    ++line_no;
    if (lr == io::LineRead::TooLong) {
      ++malformed_;
      if (first_error_line_ == 0) {
        first_error_line_ = line_no;
        first_error_ = "line exceeds " + std::to_string(io::kMaxLineBytes) +
                       " bytes";
      }
      continue;
    }
    RequestDesc desc;
    bool comment = false;
    std::string why;
    if (parse_trace_request(line, desc, &comment, &why)) {
      requests_.push_back(desc);
    } else if (!comment) {
      ++malformed_;
      if (first_error_line_ == 0) {
        first_error_line_ = line_no;
        first_error_ = why;
      }
    }
  }
}

TraceFileGenerator::TraceFileGenerator(std::vector<RequestDesc> requests)
    : requests_(std::move(requests)) {}

RequestDesc TraceFileGenerator::next() {
  if (requests_.empty()) return RequestDesc{};
  const RequestDesc desc = requests_[pos_];
  pos_ = (pos_ + 1) % requests_.size();
  return desc;
}

}  // namespace hmcsim
