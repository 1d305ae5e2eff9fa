#include "trace/tracer.hpp"

namespace hmcsim {

void Tracer::set_level(TraceLevel level) {
  level_ = level;
  update_mask();
}

void Tracer::add_sink(std::shared_ptr<TraceSink> sink) {
  sinks_.push_back({std::move(sink), true, 0});
  update_mask();
}

void Tracer::add_sink(std::shared_ptr<TraceSink> sink, TraceMask kinds) {
  sinks_.push_back({std::move(sink), false, kinds});
  update_mask();
}

void Tracer::remove_sink(const TraceSink* sink) {
  std::erase_if(sinks_,
                [sink](const Attached& a) { return a.sink.get() == sink; });
  update_mask();
}

void Tracer::emit(const TraceRecord& rec) {
  const TraceMask bit = trace_bit(rec.event);
  for (const Attached& a : sinks_) {
    if ((a.kinds & bit) != 0) a.sink->record(rec);
  }
}

void Tracer::flush() {
  for (const Attached& a : sinks_) a.sink->flush();
}

void Tracer::update_mask() {
  mask_ = 0;
  for (Attached& a : sinks_) {
    if (a.follows_level) a.kinds = level_mask(level_);
    mask_ |= a.kinds;
  }
}

}  // namespace hmcsim
