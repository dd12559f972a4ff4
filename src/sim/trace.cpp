#include "sim/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

#include "sim/engine.hpp"

namespace bcs::sim {

namespace {

/// The one renderer: a record's message text.
void renderMessage(std::string& out, const TraceRecord& r) {
  if (r.kind == nullptr) {
    out += r.text;
    return;
  }
  std::size_t field = 0;
  const char* p = r.kind->format;
  while (const char* brace = std::strchr(p, '{')) {
    out.append(p, brace);
    switch (brace[1]) {
      case '}': out += std::to_string(r.fields[field++]); break;
      case 't': out += formatTime(r.fields[field++]); break;
      case 's': out += r.name; break;
      case 'm': out += r.text; break;
    }
    p = std::strchr(brace, '}') + 1;
  }
  out += p;
}

}  // namespace

const char* traceCategoryName(TraceCategory c) {
  switch (c) {
    case TraceCategory::kEngine: return "ENGINE";
    case TraceCategory::kCpu: return "CPU";
    case TraceCategory::kNet: return "NET";
    case TraceCategory::kBcsCore: return "BCSCORE";
    case TraceCategory::kStrobe: return "STROBE";
    case TraceCategory::kDescriptor: return "DESC";
    case TraceCategory::kDma: return "DMA";
    case TraceCategory::kCollective: return "COLL";
    case TraceCategory::kStorm: return "STORM";
    case TraceCategory::kFault: return "FAULT";
    case TraceCategory::kFailover: return "FAILOVER";
    case TraceCategory::kVerify: return "VERIFY";
    case TraceCategory::kApp: return "APP";
    case TraceCategory::kRace: return "RACE";
    case TraceCategory::kEpochRace: return "EPOCHRACE";
  }
  return "?";
}

void Trace::enable(bool echo_to_stderr) {
  enabled_ = true;
  echo_ = echo_to_stderr;
}

void Trace::record(SimTime t, TraceCategory cat, int node, std::string text) {
  if (!enabled_) return;
  commit(TraceRecord{t, cat, node, nullptr, {}, nullptr, std::move(text)});
}

void Trace::commit(TraceRecord&& r) {
  if (detail::deferTraceRecord(this, &Trace::commitThunk, std::move(r))) {
    return;  // inside a parallel window; committed at the next barrier
  }
  append(std::move(r));
}

void Trace::commitThunk(void* trace, TraceRecord&& r) {
  static_cast<Trace*>(trace)->append(std::move(r));
}

void Trace::append(TraceRecord&& r) {
  if (echo_) {
    std::string msg;
    renderMessage(msg, r);
    std::fprintf(stderr, "[%14s] %-8s n%-3d %s\n", formatTime(r.time).c_str(),
                 traceCategoryName(r.category), r.node, msg.c_str());
  }
  records_.push_back(std::move(r));
}

std::size_t Trace::count(
    const std::function<bool(const TraceRecord&)>& pred) const {
  std::size_t n = 0;
  for (const auto& r : records_) {
    if (pred(r)) ++n;
  }
  return n;
}

std::string Trace::dump(std::size_t n) const {
  std::string out;
  n = std::min(n, records_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const TraceRecord& r = records_[i];
    out += "[" + formatTime(r.time) + "] ";
    out += traceCategoryName(r.category);
    out += " n" + std::to_string(r.node) + ": ";
    renderMessage(out, r);
    out += "\n";
  }
  return out;
}

}  // namespace bcs::sim
