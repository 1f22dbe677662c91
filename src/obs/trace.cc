#include "obs/trace.h"

#include <algorithm>
#include <cstdio>

namespace synergy::obs {

double TraceCollector::Now() const {
  return meter_ != nullptr ? meter_->micros() : 0.0;
}

int TraceCollector::OpenSpan(std::string name) {
  TraceSpan span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.depth = span.parent < 0 ? 0 : spans_[span.parent].depth + 1;
  span.start_us = Now();
  span.open = true;
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(std::move(span));
  open_.push_back(index);
  return index;
}

void TraceCollector::CloseSpan(int index) {
  if (index < 0 || index >= static_cast<int>(spans_.size())) return;
  TraceSpan& span = spans_[index];
  if (!span.open) return;
  span.end_us = Now();
  span.open = false;
  // RAII closes LIFO; erase defensively anywhere on the stack in case an
  // explicit Close() interleaves.
  auto it = std::find(open_.rbegin(), open_.rend(), index);
  if (it != open_.rend()) open_.erase(std::next(it).base());
}

void TraceCollector::Note(int index, std::string key, std::string value) {
  if (index < 0 || index >= static_cast<int>(spans_.size())) return;
  spans_[index].notes.emplace_back(std::move(key), std::move(value));
}

void TraceCollector::NoteCurrent(std::string key, std::string value) {
  if (open_.empty()) return;
  Note(open_.back(), std::move(key), std::move(value));
}

double TraceCollector::RootUs() const {
  double total = 0.0;
  for (const TraceSpan& span : spans_) {
    if (span.parent < 0) total += span.duration_us();
  }
  return total;
}

std::string TraceCollector::Render() const {
  std::string out;
  for (const TraceSpan& span : spans_) {
    char line[160];
    std::snprintf(line, sizeof(line), "%*s%-*s %12.1f us", span.depth * 2, "",
                  std::max(1, 34 - span.depth * 2), span.name.c_str(),
                  span.duration_us());
    out += line;
    for (const auto& [key, value] : span.notes) {
      out += "  " + key + "=" + value;
    }
    out.push_back('\n');
  }
  return out;
}

}  // namespace synergy::obs
