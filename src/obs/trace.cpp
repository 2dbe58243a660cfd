#include "obs/trace.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "obs/metrics.hpp"

namespace netrs::obs {
namespace {

/// Emits one trace event as a JSON object (no trailing comma).
void write_event(std::ostream& os, const TraceEvent& e, std::size_t pid) {
  os << "{\"name\":\"" << json_escape(e.name != nullptr ? e.name : "?")
     << "\",\"cat\":\"" << json_escape(e.cat != nullptr ? e.cat : "sim")
     << "\",\"ph\":\"" << e.phase << "\",\"pid\":" << pid
     << ",\"tid\":" << e.tid << ",\"ts\":" << format_time_us(e.ts);
  if (e.phase == 'X') {
    os << ",\"dur\":" << format_time_us(e.dur);
  }
  if (e.phase == 'i') {
    os << ",\"s\":\"t\"";  // thread-scoped instant
  }
  const bool has_args =
      e.id != 0 || e.arg0_name != nullptr || e.arg1_name != nullptr;
  if (has_args) {
    os << ",\"args\":{";
    const char* sep = "";
    if (e.id != 0) {
      os << "\"req\":" << e.id;
      sep = ",";
    }
    if (e.arg0_name != nullptr) {
      os << sep << '"' << json_escape(e.arg0_name) << "\":" << e.arg0;
      sep = ",";
    }
    if (e.arg1_name != nullptr) {
      os << sep << '"' << json_escape(e.arg1_name) << "\":" << e.arg1;
    }
    os << '}';
  }
  os << '}';
}

/// Emits a Chrome metadata event ('M') that names a process or thread.
void write_metadata(std::ostream& os, const char* what, std::size_t pid,
                    std::int32_t tid, const std::string& value) {
  os << "{\"name\":\"" << what << "\",\"ph\":\"M\",\"pid\":" << pid;
  if (tid >= 0) os << ",\"tid\":" << tid;
  os << ",\"args\":{\"name\":\"" << json_escape(value) << "\"}}";
}

}  // namespace

TraceRing::TraceRing(std::size_t capacity) : capacity_(capacity) {
  ring_.reserve(capacity_);
}

void TraceRing::record(const TraceEvent& e) {
  if (capacity_ == 0) return;
  if (ring_.size() < capacity_) {
    ring_.push_back(e);
  } else {
    ring_[head_] = e;
    head_ = (head_ + 1) % capacity_;
    ++dropped_;
  }
  ++recorded_;
}

std::vector<TraceEvent> TraceRing::in_order() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

void TraceRing::set_tid_name(std::int32_t tid, std::string name) {
  if (capacity_ == 0) return;
  tid_names_[tid] = std::move(name);
}

TraceSnapshot merge_traces(const std::vector<TraceSnapshot>& parts,
                           std::size_t capacity) {
  TraceSnapshot out;
  std::size_t total = 0;
  for (const TraceSnapshot& p : parts) total += p.events.size();
  out.events.reserve(total);
  for (const TraceSnapshot& p : parts) {
    out.events.insert(out.events.end(), p.events.begin(), p.events.end());
    out.recorded += p.recorded;
    for (const auto& [tid, name] : p.tid_names) {
      out.tid_names.emplace(tid, name);  // first writer wins; names agree
    }
  }
  // A span records when it ends (`ts + dur`), an instant when it fires;
  // sorting by that record time reproduces the single-ring record order.
  // The sort is stable and parts arrive in shard order, so exact-time
  // same-tid ties keep a deterministic order too.
  const auto record_time = [](const TraceEvent& e) {
    return e.phase == 'X' ? e.ts + e.dur : e.ts;
  };
  std::stable_sort(out.events.begin(), out.events.end(),
                   [&record_time](const TraceEvent& a, const TraceEvent& b) {
                     const sim::Time ra = record_time(a);
                     const sim::Time rb = record_time(b);
                     if (ra != rb) return ra < rb;
                     return a.tid < b.tid;
                   });
  if (capacity > 0 && out.events.size() > capacity) {
    out.events.erase(out.events.begin(),
                     out.events.end() -
                         static_cast<std::ptrdiff_t>(capacity));
  }
  out.dropped = out.recorded - out.events.size();
  return out;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void write_chrome_trace(std::ostream& os,
                        const std::vector<TraceSnapshot>& repeats) {
  os << "{\"traceEvents\":[";
  const char* sep = "\n";
  for (std::size_t rep = 0; rep < repeats.size(); ++rep) {
    const TraceSnapshot& snap = repeats[rep];
    {
      os << sep;
      sep = ",\n";
      char pname[32];
      std::snprintf(pname, sizeof(pname), "repeat %llu",
                    static_cast<unsigned long long>(rep));
      write_metadata(os, "process_name", rep, -1, pname);
    }
    for (const auto& [tid, name] : snap.tid_names) {
      os << sep;
      write_metadata(os, "thread_name", rep, tid, name);
    }
    for (const TraceEvent& e : snap.events) {
      os << sep;
      write_event(os, e, rep);
    }
  }
  os << "\n],\"displayTimeUnit\":\"ns\"}\n";
}

}  // namespace netrs::obs
