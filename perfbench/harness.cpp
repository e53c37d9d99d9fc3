#include "harness.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace pfar::perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

long long percentile(std::vector<long long> values, int p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  std::size_t rank = (static_cast<std::size_t>(p) * n + 99) / 100;
  rank = std::clamp<std::size_t>(rank, 1, n);
  return values[rank - 1];
}

int SpanLog::open(const char* layer) {
  Span s;
  s.layer = layer;
  s.phase = phase_;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start_s = seconds_since(t0_);
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void SpanLog::close(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.dur_s = seconds_since(t0_) - s.start_s;
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

void SpanLog::add_child(const char* layer, double dur_s) {
  if (!enabled_) return;
  Span s;
  s.layer = layer;
  s.phase = phase_;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start_s = seconds_since(t0_);
  s.dur_s = dur_s;
  spans_.push_back(std::move(s));
}

std::map<std::string, double> SpanLog::self_seconds(int phase) const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.dur_s;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].phase != phase) continue;
    out[spans_[i].layer] += spans_[i].dur_s - child[i];
  }
  return out;
}

double SpanLog::root_seconds(int phase) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.phase == phase && s.parent < 0) total += s.dur_s;
  }
  return total;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os.precision(17);
  for (const Span& s : spans_) {
    os << "{\"layer\":\"" << s.layer << "\",\"phase\":" << s.phase
       << ",\"parent\":" << s.parent << ",\"start_s\":" << s.start_s
       << ",\"dur_s\":" << s.dur_s << "}\n";
  }
  return static_cast<bool>(os);
}

bool Gate::check(bool ok, const std::string& what) {
  if (ok) return true;
  if (++violations_ <= 8) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  }
  return false;
}

void Digest::add(long long v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= static_cast<std::uint64_t>(v) >> (8 * i) & 0xffU;
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::add(double v) {
  long long bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

}  // namespace pfar::perfbench
