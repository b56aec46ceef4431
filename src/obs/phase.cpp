#include "src/obs/phase.h"

#include <string>

#include "src/obs/events.h"
#include "src/obs/metrics.h"

namespace dtaint::obs {

namespace {

thread_local PhaseTimings* collecting = nullptr;

}  // namespace

void PhaseTimings::Add(std::string_view phase, double seconds) {
  for (auto& [name, total] : entries_) {
    if (name == phase) {
      total += seconds;
      return;
    }
  }
  entries_.emplace_back(std::string(phase), seconds);
}

double PhaseTimings::Seconds(std::string_view phase) const {
  for (const auto& [name, seconds] : entries_) {
    if (name == phase) return seconds;
  }
  return 0.0;
}

double PhaseTimings::Total() const {
  double total = 0.0;
  for (const auto& [name, seconds] : entries_) total += seconds;
  return total;
}

CollectPhases::CollectPhases(PhaseTimings& timings) : previous_(collecting) {
  collecting = &timings;
}

CollectPhases::~CollectPhases() { collecting = previous_; }

PhaseScope::PhaseScope(std::string_view name)
    : name_(name),
      span_(Tracer::Global(), "phase", name),
      timings_(collecting) {
  EventStream& events = EventStream::Global();
  if (events.enabled()) events.Emit(Event("phase_begin").Str("phase", name_));
}

double PhaseScope::Finish() {
  if (seconds_ >= 0.0) return seconds_;
  seconds_ = watch_.Seconds();
  span_.Finish();
  EventStream& events = EventStream::Global();
  if (events.enabled()) {
    Event end("phase_end");
    end.Str("phase", name_).Double("duration_ms", seconds_ * 1e3);
    for (const auto& [key, value] : fields_) end.Num(key, value);
    events.Emit(end);
  }
  MetricsRegistry::Global()
      .histogram("phase." + std::string(name_) + "_micros")
      .Observe(static_cast<uint64_t>(seconds_ * 1e6));
  if (timings_) timings_->Add(name_, seconds_);
  return seconds_;
}

}  // namespace dtaint::obs
