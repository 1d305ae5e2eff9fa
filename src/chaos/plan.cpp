#include "chaos/plan.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/number.hpp"
#include "io/bounded_line.hpp"
#include "packet/crc32.hpp"

namespace hmcsim {
namespace {

struct ActionInfo {
  const char* name;
  ChaosAction action;
  u32 arity;
  bool magnitude;
};

// Order matches the ChaosAction enum (to_string indexes into it).
constexpr ActionInfo kActions[] = {
    {"link_error_ppm", ChaosAction::LinkErrorPpm, 1, true},
    {"link_burst", ChaosAction::LinkBurst, 1, true},
    {"link_retrain", ChaosAction::LinkRetrain, 2, false},
    {"kill_link", ChaosAction::KillLink, 1, false},
    {"revive_link", ChaosAction::ReviveLink, 1, false},
    {"dram_sbe_ppm", ChaosAction::DramSbePpm, 1, true},
    {"dram_dbe_ppm", ChaosAction::DramDbePpm, 1, true},
    {"vault_fail", ChaosAction::VaultFail, 1, false},
    {"vault_unfail", ChaosAction::VaultUnfail, 1, false},
    {"wedge", ChaosAction::Wedge, 1, false},
    {"unwedge", ChaosAction::Unwedge, 1, false},
    {"host_timeout", ChaosAction::HostTimeout, 1, true},
    {"break_invariant", ChaosAction::BreakInvariant, 1, true},
};

const ActionInfo& info(ChaosAction action) {
  return kActions[static_cast<usize>(action)];
}

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

ChaosPlanParseResult fail(usize line, const std::string& message) {
  ChaosPlanParseResult r;
  r.error = std::to_string(line) + ": " + message;
  return r;
}

std::vector<std::string> split_words(const std::string& line) {
  std::vector<std::string> words;
  std::istringstream fields(line);
  std::string word;
  while (fields >> word) words.push_back(word);
  return words;
}

/// The closing edge a storm emits for an opening action: rate actions
/// restore the baseline, structural actions apply their inverse, and
/// self-expiring actions (retrain windows, the test hook) close nothing.
bool closing_event(const ChaosEvent& open, ChaosEvent* close) {
  if (info(open.action).magnitude &&
      open.action != ChaosAction::BreakInvariant) {
    *close = open;
    close->a = 0;
    close->b = 0;
    close->restore = true;
    return true;
  }
  switch (open.action) {
    case ChaosAction::KillLink:
      *close = open;
      close->action = ChaosAction::ReviveLink;
      return true;
    case ChaosAction::VaultFail:
      *close = open;
      close->action = ChaosAction::VaultUnfail;
      return true;
    case ChaosAction::Wedge:
      *close = open;
      close->action = ChaosAction::Unwedge;
      return true;
    default:
      return false;
  }
}

}  // namespace

const char* to_string(ChaosAction action) { return info(action).name; }

bool chaos_action_from_string(const std::string& name, ChaosAction* out) {
  for (const ActionInfo& a : kActions) {
    if (name == a.name) {
      *out = a.action;
      return true;
    }
  }
  return false;
}

bool chaos_action_has_magnitude(ChaosAction action) {
  return info(action).magnitude;
}

u32 chaos_action_arity(ChaosAction action) { return info(action).arity; }

ChaosPlanParseResult parse_chaos_plan(std::istream& in) {
  ChaosPlan plan;
  std::string raw;
  usize line_no = 0;

  // A storm block collects its body until `end`, then emits the opening
  // events at storm_start and the closing events at storm_end.
  bool in_storm = false;
  Cycle storm_start = 0;
  Cycle storm_end = 0;
  std::vector<ChaosEvent> storm_body;

  const auto push_event = [&plan](const ChaosEvent& ev) {
    if (plan.events.size() >= kMaxChaosEvents) return false;
    plan.events.push_back(ev);
    return true;
  };

  // Parse "<action> [args...]" starting at words[at]; fills action/a/b (or
  // restore) and returns an empty string, else the error message.
  const auto parse_action =
      [&](const std::vector<std::string>& words, usize at, ChaosEvent& ev,
          bool allow_restore) -> std::string {
    if (at >= words.size()) return "missing action";
    usize i = at;
    if (words[i] == "restore") {
      if (!allow_restore) return "'restore' is not valid here";
      ++i;
      if (i >= words.size()) return "restore needs an action name";
      if (!chaos_action_from_string(words[i], &ev.action)) {
        return "unknown action '" + words[i] + "'";
      }
      if (!chaos_action_has_magnitude(ev.action) ||
          ev.action == ChaosAction::BreakInvariant) {
        return "only rate actions can be restored (got '" + words[i] + "')";
      }
      if (i + 1 != words.size()) return "restore takes no arguments";
      ev.restore = true;
      ev.a = 0;
      ev.b = 0;
      return "";
    }
    if (!chaos_action_from_string(words[i], &ev.action)) {
      return "unknown action '" + words[i] + "'";
    }
    const u32 arity = chaos_action_arity(ev.action);
    if (words.size() - i - 1 != arity) {
      return std::string(words[i]) + " takes " + std::to_string(arity) +
             " argument" + (arity == 1 ? "" : "s") + ", got " +
             std::to_string(words.size() - i - 1);
    }
    u64 args[2] = {0, 0};
    for (u32 k = 0; k < arity; ++k) {
      if (!parse_unsigned(words[i + 1 + k], args[k])) {
        return "bad number '" + words[i + 1 + k] + "'";
      }
    }
    ev.a = args[0];
    ev.b = args[1];
    ev.restore = false;
    return "";
  };

  for (;;) {
    const io::LineRead lr = io::getline_bounded(in, raw);
    if (lr == io::LineRead::Eof) break;
    ++line_no;
    if (lr == io::LineRead::TooLong) {
      return fail(line_no, "line exceeds " +
                               std::to_string(io::kMaxLineBytes) + " bytes");
    }
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    const std::string line = trim(raw);
    if (line.empty()) continue;
    const std::vector<std::string> words = split_words(line);
    const std::string& head = words[0];

    if (in_storm) {
      if (head == "end") {
        if (words.size() != 1) return fail(line_no, "end takes no arguments");
        for (const ChaosEvent& open : storm_body) {
          if (!push_event(open)) {
            return fail(line_no, "plan expands past " +
                                     std::to_string(kMaxChaosEvents) +
                                     " events");
          }
          ChaosEvent close;
          if (closing_event(open, &close)) {
            close.cycle = storm_end;
            close.line = open.line;
            if (!push_event(close)) {
              return fail(line_no, "plan expands past " +
                                       std::to_string(kMaxChaosEvents) +
                                       " events");
            }
          }
        }
        storm_body.clear();
        in_storm = false;
        continue;
      }
      if (head == "at" || head == "every" || head == "ramp" ||
          head == "storm" || head == "quiet") {
        return fail(line_no,
                    "'" + head + "' is not valid inside a storm block "
                    "(missing 'end'?)");
      }
      ChaosEvent ev;
      ev.cycle = storm_start;
      ev.line = static_cast<u32>(line_no);
      const std::string err = parse_action(words, 0, ev, false);
      if (!err.empty()) return fail(line_no, err);
      storm_body.push_back(ev);
      continue;
    }

    if (head == "at") {
      if (words.size() < 3) {
        return fail(line_no, "at needs: at <cycle> <action> [args...]");
      }
      ChaosEvent ev;
      if (!parse_unsigned(words[1], ev.cycle)) {
        return fail(line_no, "bad cycle '" + words[1] + "'");
      }
      ev.line = static_cast<u32>(line_no);
      const std::string err = parse_action(words, 2, ev, true);
      if (!err.empty()) return fail(line_no, err);
      if (!push_event(ev)) {
        return fail(line_no, "plan expands past " +
                                 std::to_string(kMaxChaosEvents) + " events");
      }
    } else if (head == "every") {
      // every <period> [from <cycle>] until <cycle> <action> [args...]
      if (words.size() < 4) {
        return fail(line_no,
                    "every needs: every <period> [from <cycle>] "
                    "until <cycle> <action> [args...]");
      }
      u64 period = 0;
      if (!parse_unsigned(words[1], period) || period == 0) {
        return fail(line_no, "every needs a nonzero period");
      }
      usize i = 2;
      u64 from = 0;
      if (words[i] == "from") {
        if (i + 1 >= words.size() || !parse_unsigned(words[i + 1], from)) {
          return fail(line_no, "from needs a cycle");
        }
        i += 2;
      }
      if (i >= words.size() || words[i] != "until") {
        return fail(line_no, "every needs an 'until <cycle>' bound");
      }
      ++i;
      u64 until = 0;
      if (i >= words.size() || !parse_unsigned(words[i], until)) {
        return fail(line_no, "until needs a cycle");
      }
      ++i;
      if (until < from) {
        return fail(line_no, "until must not precede from");
      }
      ChaosEvent proto;
      proto.line = static_cast<u32>(line_no);
      const std::string err = parse_action(words, i, proto, true);
      if (!err.empty()) return fail(line_no, err);
      for (u64 c = from;; c += period) {
        ChaosEvent ev = proto;
        ev.cycle = c;
        if (!push_event(ev)) {
          return fail(line_no, "plan expands past " +
                                   std::to_string(kMaxChaosEvents) +
                                   " events");
        }
        if (until - c < period) break;  // next firing would pass `until`
      }
    } else if (head == "ramp") {
      // ramp <start> <end> <steps> <action> <from> <to>
      if (words.size() != 7) {
        return fail(line_no,
                    "ramp needs: ramp <start> <end> <steps> <action> "
                    "<from> <to>");
      }
      u64 start = 0, end = 0, steps = 0, lo = 0, hi = 0;
      if (!parse_unsigned(words[1], start) || !parse_unsigned(words[2], end)) {
        return fail(line_no, "bad ramp cycle bounds");
      }
      if (end <= start) return fail(line_no, "ramp end must follow start");
      if (!parse_unsigned(words[3], steps) || steps == 0) {
        return fail(line_no, "ramp needs a nonzero step count");
      }
      ChaosEvent proto;
      proto.line = static_cast<u32>(line_no);
      if (!chaos_action_from_string(words[4], &proto.action)) {
        return fail(line_no, "unknown action '" + words[4] + "'");
      }
      if (!chaos_action_has_magnitude(proto.action)) {
        return fail(line_no, "ramp needs a rate action (got '" + words[4] +
                                 "')");
      }
      if (!parse_unsigned(words[5], lo) || !parse_unsigned(words[6], hi)) {
        return fail(line_no, "bad ramp value bounds");
      }
      for (u64 s = 0; s <= steps; ++s) {
        ChaosEvent ev = proto;
        ev.cycle = start + (end - start) * s / steps;
        ev.a = lo <= hi ? lo + (hi - lo) * s / steps
                        : lo - (lo - hi) * s / steps;
        if (!push_event(ev)) {
          return fail(line_no, "plan expands past " +
                                   std::to_string(kMaxChaosEvents) +
                                   " events");
        }
      }
    } else if (head == "storm") {
      if (words.size() != 3) {
        return fail(line_no, "storm needs: storm <start> <end>");
      }
      if (!parse_unsigned(words[1], storm_start) ||
          !parse_unsigned(words[2], storm_end)) {
        return fail(line_no, "bad storm cycle bounds");
      }
      if (storm_end <= storm_start) {
        return fail(line_no, "storm end must follow start");
      }
      in_storm = true;
    } else if (head == "quiet") {
      // Zero every fault rate at <start>, restore the baselines at <end>.
      if (words.size() != 3) {
        return fail(line_no, "quiet needs: quiet <start> <end>");
      }
      u64 start = 0, end = 0;
      if (!parse_unsigned(words[1], start) || !parse_unsigned(words[2], end)) {
        return fail(line_no, "bad quiet cycle bounds");
      }
      if (end <= start) return fail(line_no, "quiet end must follow start");
      constexpr ChaosAction kRates[] = {ChaosAction::LinkErrorPpm,
                                        ChaosAction::DramSbePpm,
                                        ChaosAction::DramDbePpm};
      for (const ChaosAction rate : kRates) {
        ChaosEvent open;
        open.cycle = start;
        open.action = rate;
        open.a = 0;
        open.line = static_cast<u32>(line_no);
        ChaosEvent close = open;
        close.cycle = end;
        close.restore = true;
        if (!push_event(open) || !push_event(close)) {
          return fail(line_no, "plan expands past " +
                                   std::to_string(kMaxChaosEvents) +
                                   " events");
        }
      }
    } else if (head == "end") {
      return fail(line_no, "'end' without a matching storm block");
    } else {
      return fail(line_no, "unknown directive '" + head + "'");
    }
  }

  if (in_storm) {
    return fail(line_no == 0 ? 1 : line_no,
                "unterminated storm block (missing 'end')");
  }

  std::stable_sort(
      plan.events.begin(), plan.events.end(),
      [](const ChaosEvent& x, const ChaosEvent& y) { return x.cycle < y.cycle; });
  ChaosPlanParseResult r;
  r.ok = true;
  r.plan = std::move(plan);
  return r;
}

ChaosPlanParseResult parse_chaos_plan_string(const std::string& text) {
  std::istringstream in(text);
  return parse_chaos_plan(in);
}

void write_chaos_plan(std::ostream& os, const ChaosPlan& plan) {
  os << "# hmcsim chaos plan (compiled event list)\n";
  for (const ChaosEvent& ev : plan.events) {
    os << "at " << ev.cycle << ' ';
    if (ev.restore) {
      os << "restore " << to_string(ev.action) << '\n';
      continue;
    }
    os << to_string(ev.action);
    const u32 arity = chaos_action_arity(ev.action);
    if (arity >= 1) os << ' ' << ev.a;
    if (arity >= 2) os << ' ' << ev.b;
    os << '\n';
  }
}

u64 chaos_plan_crc(const ChaosPlan& plan) {
  // Canonical little-endian serialization of the semantic fields (the
  // source line number is diagnostic only).
  std::vector<u8> bytes;
  bytes.reserve(plan.events.size() * 26);
  const auto put_u64 = [&bytes](u64 v) {
    for (int i = 0; i < 8; ++i) bytes.push_back(static_cast<u8>(v >> (i * 8)));
  };
  for (const ChaosEvent& ev : plan.events) {
    put_u64(ev.cycle);
    bytes.push_back(static_cast<u8>(ev.action));
    bytes.push_back(ev.restore ? 1 : 0);
    put_u64(ev.a);
    put_u64(ev.b);
  }
  const u64 count = plan.events.size();
  return crc::crc32k(bytes) ^ (count << 32);
}

}  // namespace hmcsim
