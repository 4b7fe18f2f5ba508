#include "src/obs/trace.h"

namespace sep {
namespace obs {

bool g_trace_enabled = false;

void TraceRecorder::Start(std::size_t capacity) {
  slots_.assign(capacity, TraceEvent{});
  size_ = 0;
  dropped_ = 0;
  g_trace_enabled = true;
}

void TraceRecorder::Stop() { g_trace_enabled = false; }

std::vector<TraceEvent> TraceRecorder::Drain() {
  std::vector<TraceEvent> out(slots_.data(), slots_.data() + size_);
  size_ = 0;
  return out;
}

void TraceRecorder::Emit(const TraceEvent& event) {
  if (size_ == slots_.size()) {
    ++dropped_;
    return;
  }
  slots_[size_++] = event;
}

TraceRecorder& Recorder() {
  static TraceRecorder recorder;
  return recorder;
}

}  // namespace obs
}  // namespace sep
