#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <thread>

namespace perfbench {
namespace {

/// Ids of the spans currently open on this thread, innermost last.
thread_local std::vector<std::int64_t> t_open;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

std::int64_t Tracer::to_ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

int Tracer::thread_index() {
  const std::uint64_t key =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  const auto it = tids_.find(key);
  if (it != tids_.end()) return it->second;
  const int idx = static_cast<int>(tids_.size()) + 1;
  tids_.emplace(key, idx);
  return idx;
}

std::int64_t Tracer::begin(const std::string& name, std::uint64_t flow) {
  if (!enabled_) return 0;
  const std::int64_t now = to_ns(Clock::now());
  std::int64_t id = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    SpanRecord s;
    s.name = name;
    s.start_ns = now;
    s.end_ns = now;
    s.parent = t_open.empty() ? 0 : t_open.back();
    // A child inherits its parent's flow unless it names its own.
    if (flow == 0 && s.parent != 0)
      flow = spans_[static_cast<std::size_t>(s.parent - 1)].flow;
    s.flow = flow;
    s.tid = thread_index();
    spans_.push_back(std::move(s));
    id = static_cast<std::int64_t>(spans_.size());
  }
  t_open.push_back(id);
  return id;
}

void Tracer::end(std::int64_t id) {
  if (id == 0) return;
  const std::int64_t now = to_ns(Clock::now());
  if (t_open.empty() || t_open.back() != id)
    throw std::logic_error("perfbench: spans closed out of order");
  t_open.pop_back();
  std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<std::size_t>(id - 1)].end_ns = now;
}

void Tracer::record(const std::string& name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t flow) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lk(mu_);
  SpanRecord s;
  s.name = name;
  s.start_ns = to_ns(start);
  s.end_ns = std::max(s.start_ns, to_ns(end));
  s.flow = flow;
  s.tid = thread_index();
  spans_.push_back(std::move(s));
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_.size();
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  std::lock_guard<std::mutex> lk(mu_);
  // Children of each span, as [start, end) intervals.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans_.size());
  for (const SpanRecord& s : spans_)
    if (s.parent != 0)
      kids[static_cast<std::size_t>(s.parent - 1)].emplace_back(s.start_ns,
                                                                s.end_ns);
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    // Union of the children's intervals, clipped to the parent's.
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0, cur_hi = -1;
    for (const auto& [lo0, hi0] : iv) {
      const std::int64_t lo = std::max(lo0, s.start_ns);
      const std::int64_t hi = std::min(hi0, s.end_ns);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    const std::string layer = s.name.substr(0, s.name.find('.'));
    self[layer] += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  return self;
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr)
    throw std::runtime_error("perfbench: cannot write trace " + path);
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    const std::string cat = s.name.substr(0, s.name.find('.'));
    std::fprintf(f,
                 "%s{\"name\": %s, \"cat\": %s, \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %zu, \"parent\": %lld, \"flow\": %llu}}",
                 i == 0 ? "" : ",\n", json_string(s.name).c_str(),
                 json_string(cat).c_str(), s.tid,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i + 1,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.flow));
  }
  std::fputs("\n]}\n", f);
  if (std::fclose(f) != 0)
    throw std::runtime_error("perfbench: failed writing trace " + path);
}

}  // namespace perfbench
